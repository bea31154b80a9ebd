"""Randomized SVD — a faithful Python rendering of the paper's Algorithm 3.

The paper implements Halko–Martinsson–Tropp randomized SVD on Intel MKL; the
pseudo-code (with the MKL routine used per line) is:

    1  sample Gaussian O (n × l) and P (l × l)      # vsRngGaussian
    2  Y = Aᵀ O                                     # mkl_sparse_s_mm
    3  orthonormalize Y                             # sgeqrf / sorgqr
    4  B = A Y                                      # mkl_sparse_s_mm
    5  Z = B P                                      # cblas_sgemm
    6  orthonormalize Z                             # sgeqrf / sorgqr
    7  C = Zᵀ B                                     # cblas_sgemm
    8  SVD C = U Σ Vᵀ                               # sgesvd
    9  return Z U, Σ, Y V                           # cblas_sgemm

We reproduce exactly this two-sided sketch, add the standard oversampling and
power-iteration knobs, and accept anything with ``@``/``.T`` semantics —
scipy sparse matrices, dense arrays, or
:class:`scipy.sparse.linalg.LinearOperator` (the NRP baseline factorizes an
*implicit* polynomial operator through the same code path).

Every big-``n`` step dispatches through the shared kernel layer
(:mod:`repro.linalg.kernels`), identically on both precisions: the SPMMs
(lines 2/4 and the power iterations) are threaded over contiguous row/column
blocks, bit-identical to the serial result at every ``workers``; the
orthonormalizations (lines 3/6) are in-place CholeskyQR2
(:func:`~repro.linalg.kernels.cholesky_qr`, Householder only as its counted
fallback); the ``sketch×sketch`` reduction (line 7) accumulates in float64.
The call owns two sketch-wide buffers — ``rows × l`` and ``cols × l`` — and
ping-pongs them through ``spmm(out=)`` and the in-place orthonormalization,
so the passes allocate nothing; the ``rows × l`` one is released as soon as
``Zᵀ B`` exists, before the two map-back GEMMs.  Beside the operator the call
therefore peaks at the larger of the ``B·P`` step, ``(2·rows + cols)·l``
elements, and the map-back, ``(rows + cols)·(l + d)``, for rank ``d``.
``symmetric=True`` (every NetMF-style matrix) runs the three ``Aᵀ·`` passes
as ``A·`` on the row-blocked CSR kernel instead of the column-chunked CSC
path over ``A.T``.
``precision="single"`` mirrors MKL's ``s``-routines — the operator and every
sketch block are cast to float32 once — and changes nothing else.
On a sparse or implicit operator the call runs under
:func:`~repro.utils.parallel.single_blas_thread`: the SPMMs take the
``workers`` threads and the GEMMs between them run on one BLAS thread, so
the factors do not depend on numpy's BLAS thread count.  A dense operand
keeps threaded BLAS, whose products are then that operand's parallelism.

The pipelines call it through :func:`factorize`, which adds the
numerical-health layer's posterior residual probe.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import telemetry
from repro.errors import FactorizationError
from repro.linalg.kernels import TiledCSR, cholesky_qr, gram, resolve_precision, spmm
from repro.telemetry import health
from repro.utils.parallel import single_blas_thread
from repro.utils.rng import SeedLike, ensure_rng

MatrixLike = Union[np.ndarray, sp.spmatrix, spla.LinearOperator, TiledCSR]

# Extra sketch columns beyond the rank: the sketch block is ``rank +
# OVERSAMPLING`` wide (capped by the matrix).
OVERSAMPLING = 10


# Row-block height for single-precision Gaussian sketch generation: the
# float64 draw transient is bounded to block_rows × sketch instead of the
# whole n × sketch array.
_SKETCH_BLOCK_ROWS = 8_192


def _gaussian_sketch(
    rng: np.random.Generator,
    shape: Tuple[int, int],
    dtype,
    *,
    block_rows: int = _SKETCH_BLOCK_ROWS,
) -> np.ndarray:
    """Gaussian test matrix in ``dtype`` without a full-size float64 copy.

    The float64 path is one plain ``standard_normal`` call.  The float32
    path consumes the *same* draws — ``standard_normal`` fills C-order, so
    drawing row blocks sequentially yields identical values — but casts each
    block into the preallocated float32 output, so the float64 transient is
    one block, not the sketch.
    """
    if np.dtype(dtype) == np.float64:
        return rng.standard_normal(shape)
    out = np.empty(shape, dtype=dtype)
    rows = shape[0]
    for r0 in range(0, rows, block_rows):
        r1 = min(rows, r0 + block_rows)
        out[r0:r1] = rng.standard_normal((r1 - r0,) + shape[1:])
    return out


def _apply(
    matrix: MatrixLike,
    block: np.ndarray,
    *,
    transpose: bool = False,
    out: Optional[np.ndarray] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """``matrix @ block`` (``matrixᵀ @ block`` with ``transpose``).

    Explicit matrices go through :func:`~repro.linalg.kernels.spmm` and land
    in ``out`` when one is given; implicit operators return whatever their
    ``matmat``/``rmatmat`` allocates.
    """
    if isinstance(matrix, spla.LinearOperator):
        product = matrix.rmatmat(block) if transpose else matrix.matmat(block)
        return np.asarray(product)
    return spmm(matrix.T if transpose else matrix, block, out=out, workers=workers)


def randomized_svd(
    matrix: MatrixLike,
    rank: int,
    *,
    oversampling: int = OVERSAMPLING,
    power_iterations: int = 2,
    seed: SeedLike = None,
    precision: str = "double",
    workers: Optional[int] = 1,
    symmetric: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``rank`` randomized SVD of a (possibly implicit) matrix.

    Parameters
    ----------
    matrix:
        ``(n, k)`` array, sparse matrix or LinearOperator.
    rank:
        Target rank ``d``.
    oversampling:
        Extra sketch columns ``p``; the sketch width is ``d + p``.
    power_iterations:
        Subspace (power) iterations sharpening the sketch for slowly decaying
        spectra — 0 recovers Algorithm 3 verbatim.
    seed:
        RNG seed or generator.
    precision:
        ``"double"`` (default) or ``"single"`` — the paper's MKL dtype
        policy: cast the operator and sketches to float32 once.  The
        algorithm is the same on both; only the dtype differs.
    workers:
        Thread count for the sparse products (``None`` = one per core,
        capped at 8).  The result is bit-identical for every value.  For a
        sparse or implicit operator it is the call's whole budget: numpy's
        BLAS is held at one thread until the call returns.
    symmetric:
        ``True`` — the caller built ``matrix`` symmetric (every NetMF-style
        matrix): the ``Aᵀ·`` passes run as ``A·``, which for a CSR operator
        is the row-blocked kernel instead of the column-chunked CSC path
        over ``A.T``.  A non-square matrix is an error.  ``False``
        (default) keeps the general two-sided scheme; nothing is probed.

    Returns
    -------
    (U, sigma, Vt):
        ``U`` is ``(n, d)``, ``sigma`` the top ``d`` singular values
        descending, ``Vt`` is ``(d, k)``.
    """
    rng = ensure_rng(seed)
    dtype = resolve_precision(precision)
    rows, cols = matrix.shape
    if rank < 1:
        raise FactorizationError(f"rank must be >= 1, got {rank}")
    if rank > min(rows, cols):
        raise FactorizationError(
            f"rank {rank} exceeds matrix dimensions {matrix.shape}"
        )
    if oversampling < 0:
        raise FactorizationError(f"oversampling must be >= 0, got {oversampling}")
    if symmetric and rows != cols:
        raise FactorizationError(
            f"symmetric randomized SVD needs a square matrix, got {matrix.shape}"
        )
    sketch = min(rank + oversampling, min(rows, cols))
    adjoint = not symmetric  # whether an ``Aᵀ·`` pass really transposes

    # The library's pool runs a sparse or implicit operator's products, so
    # numpy's BLAS is held at one thread for the call (``workers`` is the
    # whole budget); a dense operand's product *is* one threaded BLAS call.
    blas_scope = (
        single_blas_thread()
        if sp.issparse(matrix) or isinstance(matrix, (spla.LinearOperator, TiledCSR))
        else nullcontext()
    )
    with blas_scope:
        if dtype == np.float32 and hasattr(matrix, "astype") and matrix.dtype != dtype:
            matrix = matrix.astype(dtype)  # cast once, like MKL's s-path

        # Two owned buffers serve the whole call: ``tall`` (rows × sketch)
        # holds Ω and then every A·Y, ``wide`` (cols × sketch) every Y; each
        # product lands in the buffer whose contents it replaces and is
        # orthonormalized there.  The sketch consumes the same float64 draws
        # on both precisions (single/double runs share their random sketch).
        # Lines 1-3: Y = Aᵀ O, orthonormalized.
        with telemetry.span("svd.range_finder", rank=rank, sketch=sketch):
            tall = _gaussian_sketch(rng, (rows, sketch), dtype)
            wide = _apply(matrix, tall, transpose=adjoint, workers=workers)
            wide = cholesky_qr(wide, overwrite=True)
            telemetry.count("svd.operator_passes")
        # Optional subspace iteration (orthonormalization-stabilized).
        for iteration in range(power_iterations):
            with telemetry.span("svd.power_iteration", iteration=iteration):
                tall = _apply(matrix, wide, out=tall, workers=workers)
                tall = cholesky_qr(tall, overwrite=True)
                wide = _apply(
                    matrix, tall, transpose=adjoint, out=wide, workers=workers
                )
                wide = cholesky_qr(wide, overwrite=True)
                telemetry.count("svd.operator_passes", 2)
        with telemetry.span("svd.factorize", sketch=sketch):
            # Line 4: B = A Y  (n × sketch).
            b = _apply(matrix, wide, out=tall, workers=workers)
            telemetry.count("svd.operator_passes")
            # Lines 5-6: Z = orth(B P) with P Gaussian (sketch × sketch).
            p = _gaussian_sketch(rng, (sketch, sketch), b.dtype)
            z = cholesky_qr(b @ p, overwrite=True)
            # Lines 7-8: small SVD of C = Zᵀ B; the big-n reduction
            # accumulates in float64 and the small SVD runs in float64 on
            # both precisions.
            u_small, sigma, vt_small = np.linalg.svd(
                gram(z, b), full_matrices=False
            )
            del b, tall  # the sketch block is dead before the map-back GEMMs
            # Line 9: map back. Columns of (Z U) approximate left singular
            # vectors of A restricted to range(Y); right vectors are Y V.
            u = z @ u_small[:, :rank].astype(z.dtype, copy=False)
            vt = (wide @ vt_small[:rank].T.astype(wide.dtype, copy=False)).T
        return u, sigma[:rank], vt


def check_factorizer(factorizer: str) -> None:
    """Reject a ``factorizer`` other than ``"rsvd"``."""
    if factorizer != "rsvd":
        raise FactorizationError(
            f"factorizer must be 'rsvd' (the paper's Algorithm 3), "
            f"got {factorizer!r}"
        )


def factorize(
    matrix: MatrixLike,
    rank: int,
    *,
    factorizer: str = "rsvd",
    oversampling: int = OVERSAMPLING,
    power_iterations: int = 2,
    seed: SeedLike = None,
    precision: str = "double",
    workers: Optional[int] = 1,
    symmetric: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pipelines' factorization: :func:`randomized_svd` with these
    arguments, bit for bit, followed by the numerical-health layer's
    posterior residual probe.

    ``factorizer`` names the algorithm and accepts only ``"rsvd"`` (the
    paper's Algorithm 3); any other value is a :class:`FactorizationError`.
    """
    check_factorizer(factorizer)
    factors = randomized_svd(
        matrix,
        rank,
        oversampling=oversampling,
        power_iterations=power_iterations,
        seed=seed,
        precision=precision,
        workers=workers,
        symmetric=symmetric,
    )
    # No-op without an active HealthRecorder: fixed-seed probe vectors,
    # serial products, float64 accumulation — the check never consumes
    # pipeline RNG and never perturbs the factors.
    health.check_factorization_residual(matrix, *factors)
    return factors


def embedding_from_svd(
    u: np.ndarray, sigma: np.ndarray, *, clip: Optional[float] = None
) -> np.ndarray:
    """The paper's embedding rule ``X = U Σ^{1/2}``.

    ``clip`` optionally caps singular values (numerical guard for tiny
    graphs with near-duplicate rows); default no clipping.  The result keeps
    ``u``'s dtype, so a float32 pipeline stays float32 end to end.
    """
    sigma = np.maximum(sigma, 0.0)
    if clip is not None:
        sigma = np.minimum(sigma, clip)
    scale = np.sqrt(sigma).astype(u.dtype, copy=False)
    return u * scale[None, :]


def residual_estimate(
    matrix: MatrixLike,
    u: np.ndarray,
    sigma: np.ndarray,
    vt: np.ndarray,
    *,
    probes: int = 4,
    seed: SeedLike = 0,
) -> float:
    """Probe-vector estimate of the relative residual ``‖A − UΣVᵀ‖/‖A‖``.

    Draws ``probes`` Gaussian test vectors ``g`` and returns
    ``‖A·G − U·Σ·(Vᵀ·G)‖_F / ‖A·G‖_F`` — a cheap posterior accuracy check
    costing one ``matmat`` against a ``k × probes`` block instead of ever
    densifying the operator.  Everything accumulates in float64, and the
    products run serially, so the estimate is deterministic for a fixed
    ``seed`` regardless of how the factorization itself was threaded.

    This is the numerical-health layer's factorization probe
    (:func:`repro.telemetry.health.check_factorization_residual`); callers
    there pass a fixed internal seed so the probe never consumes the
    pipeline RNG.
    """
    if probes < 1:
        raise FactorizationError(f"probes must be >= 1, got {probes}")
    rng = ensure_rng(seed)
    cols = matrix.shape[1]
    g = rng.standard_normal((cols, probes))
    ag = _apply(matrix, g).astype(np.float64, copy=False)
    approx = u.astype(np.float64, copy=False) @ (
        np.asarray(sigma, dtype=np.float64)[:, None]
        * (vt.astype(np.float64, copy=False) @ g)
    )
    numerator = float(np.linalg.norm(ag - approx))
    denominator = float(np.linalg.norm(ag))
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else float("inf")
    return numerator / denominator


def _materialize(matrix: MatrixLike, block_cols: int = 256) -> np.ndarray:
    """Densify any supported operand, including implicit LinearOperators.

    ``np.asarray`` on a LinearOperator yields a useless 0-d object array, so
    implicit operators are materialized by ``matmat`` against identity column
    blocks instead (bounded-width probes; test-oracle scale only).
    """
    if sp.issparse(matrix):
        return matrix.toarray()
    if isinstance(matrix, spla.LinearOperator):
        rows, cols = matrix.shape
        dense = np.empty((rows, cols), dtype=np.result_type(matrix.dtype, np.float64))
        eye = np.eye(cols, dtype=dense.dtype)
        for c0 in range(0, cols, block_cols):
            c1 = min(cols, c0 + block_cols)
            dense[:, c0:c1] = np.asarray(matrix.matmat(eye[:, c0:c1]))
        return dense
    return np.asarray(matrix)


def exact_reference_svd(matrix: MatrixLike, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense exact truncated SVD (test oracle; small matrices only)."""
    dense = _materialize(matrix)
    u, sigma, vt = np.linalg.svd(dense, full_matrices=False)
    return u[:, :rank], sigma[:rank], vt[:rank]
