"""Single-pass sketched factorization — the SketchNE / NetMF+ backend.

The two-sided Gaussian randomized SVD (:func:`repro.linalg.randomized_svd.
randomized_svd`, the paper's Algorithm 3) reads the operator ``2 + 2·q``
times (range finder, ``q`` power iterations, the final ``B = A Y``) and
keeps several dense ``n × (d+p)`` workspaces alive at once.  SketchNE
(arXiv 2110.12782) — the route LIGHTNE 2.0 (arXiv 2302.07084) adopts at
billion scale — shows the same embedding quality is reachable from **one**
streamed pass using the practical sketching scheme of Tropp–Yurtsever–
Udell–Cevher (SIAM J. Matrix Anal. 2017):

1. draw two *sparse-sign* sketches (:mod:`repro.linalg.sketch`): a range
   sketch ``Ω`` of width ``w = d + p`` and a wider co-range sketch ``Ψ``
   of width ``2w + 1`` (the extra co-range oversampling is what keeps the
   core solve stable — the naive one-sided consistency solve
   ``C (QᵀΩ) = QᵀY`` amplifies the spectral tail through ``(QᵀΩ)⁻¹``);
2. read ``A`` exactly once through the row-blocked SPMM
   (:func:`repro.linalg.kernels.spmm` — memmapped/out-of-core operands
   compose, the blocking is the kernel's own), computing ``Y = A Ω`` and
   ``Z = A Ψ`` from the *same* pass — for symmetric ``A`` (every
   NetMF-style matrix in this library) ``Zᵀ = Ψᵀ A`` is the left sketch
   for free;
3. accumulate the small sketch-width cross matrices in **float64**
   (``ZᵀQ`` via :func:`repro.linalg.kernels.gram`, ``ΨᵀQ`` via a blocked
   sparse product);
4. recover the spectrum from one dense eigendecomposition of the
   ``w × w`` core ``C = (ΨᵀQ)⁺ (ΨᵀA Q) ≈ Qᵀ A Q`` — no second visit to
   ``A``.  ``eigh(C)`` yields ``A ≈ (Q V) Λ (Q V)ᵀ`` and the SVD factors
   follow by splitting ``Λ`` into magnitudes and signs.

For non-symmetric operators (NRP's PPR polynomial) the general two-sided
variant sketches both sides explicitly (``Y = A Ω``, ``Z = Aᵀ Ψ``), solves
``(ΨᵀQ) X = Zᵀ`` for ``X ≈ Qᵀ A``, and takes the small SVD of ``X`` —
one forward plus one adjoint application instead of rSVD's ``2 + 2q``.

Memory: the factorization holds one ``n × (3w+1)`` sketched product plus a
transient dense staging copy of the sketches (freed before the core
solve), against rSVD's two ``n × (d+p)`` sketch buffers plus ``Z`` — and,
unlike rSVD, never materializes a dense Gaussian test matrix.  Passes: 1
(symmetric) or 2 (general) versus ``2 + 2·power_iterations``.  The range
basis ``Q`` comes from the same in-place CholeskyQR2
(:func:`repro.linalg.kernels.cholesky_qr`) the rSVD uses, on both
precisions.

Determinism: sketch generation is a pure function of the seed
(:mod:`repro.linalg.sketch`), the streamed pass is bit-identical for every
``workers`` and row-block count by the :func:`~repro.linalg.kernels.spmm`
contract, and every small dense solve is serial LAPACK — so the factors are
bit-identical at every worker count and on both execution substrates.

Telemetry (all no-ops until :func:`repro.telemetry.enable`): spans
``sketch.generate`` / ``sketch.pass`` / ``sketch.core``; counters
``sketch.operator_passes`` (how often ``A`` was read), ``sketch.flops``,
``sketch.bytes``; gauges ``sketch.width`` and ``sketch.density``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import telemetry
from repro.errors import FactorizationError
from repro.telemetry import health
from repro.linalg.kernels import cholesky_qr, gram, resolve_precision
from repro.linalg.randomized_svd import _apply, randomized_svd
from repro.linalg.sketch import (
    SKETCH_NNZ_PER_ROW,
    densify_sketch,
    sketch_density,
    sparse_sign_sketch,
)
from repro.utils.rng import SeedLike, ensure_rng

MatrixLike = Union[np.ndarray, sp.spmatrix, spla.LinearOperator]

# The factorization backends the ``factorizer`` knob accepts.
FACTORIZERS = ("rsvd", "single_pass")

# Row-block height for the float64 cross-matrix accumulations (bounds the
# upcast transient to ~16k × width float64).
CROSS_BLOCK_ROWS = 16_384


def _co_range_width(width: int, dim: int) -> int:
    """Co-range sketch width: the 2w+1 rule of Tropp et al. (2017), §4.5."""
    return min(2 * width + 1, dim)


def _sparse_cross(
    sketch: sp.spmatrix,
    dense: np.ndarray,
    *,
    block_rows: int = CROSS_BLOCK_ROWS,
) -> np.ndarray:
    """``sketchᵀ @ dense`` with float64 accumulation, blocked over rows.

    The sketch-width cross matrix ``ΨᵀQ`` is one of the places the
    single-precision pipeline keeps double sums, mirroring
    :func:`repro.linalg.kernels.gram`; blocking bounds the float64 upcast of
    ``dense`` to ``block_rows`` rows at a time.  Serial and in fixed block
    order, hence bit-identical regardless of how the big pass was threaded.
    """
    rows = sketch.shape[0]
    if rows != dense.shape[0]:
        raise FactorizationError(
            f"cross shape mismatch: {sketch.shape} vs {dense.shape}"
        )
    csr = sketch.tocsr().astype(np.float64)
    out = np.zeros((sketch.shape[1], dense.shape[1]), dtype=np.float64)
    for r0 in range(0, rows, block_rows):
        r1 = min(rows, r0 + block_rows)
        out += csr[r0:r1].T @ dense[r0:r1].astype(np.float64, copy=False)
    return out


def _pass_telemetry(matrix: MatrixLike, width: int, passes: int) -> None:
    telemetry.counter("sketch.operator_passes").inc(passes)
    if sp.issparse(matrix):
        nnz = int(matrix.nnz)
        telemetry.counter("sketch.flops").inc(2.0 * nnz * width * passes)
        moved = (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        )
        telemetry.counter("sketch.bytes").inc(float(moved) * passes)
    elif not isinstance(matrix, spla.LinearOperator):
        rows, cols = matrix.shape
        telemetry.counter("sketch.flops").inc(2.0 * rows * cols * width * passes)
        telemetry.counter("sketch.bytes").inc(
            float(np.asarray(matrix).nbytes) * passes
        )


def single_pass_svd(
    matrix: MatrixLike,
    rank: int,
    *,
    oversampling: Optional[int] = None,
    nnz_per_row: int = SKETCH_NNZ_PER_ROW,
    seed: SeedLike = None,
    precision: str = "double",
    workers: Optional[int] = 1,
    symmetric: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``rank`` factors of ``matrix`` from a single streamed pass.

    Same contract as :func:`repro.linalg.randomized_svd.randomized_svd`:
    returns ``(U, sigma, Vt)`` with ``U`` of shape ``(n, rank)``, ``sigma``
    the top ``rank`` singular values descending, ``Vt`` of shape
    ``(rank, k)`` — so ``embedding_from_svd`` and every caller compose
    unchanged.

    Parameters
    ----------
    matrix:
        Dense array, sparse matrix, or LinearOperator.  Explicit operands
        go through :func:`~repro.linalg.kernels.spmm`, row block by row
        block (memmapped CSR composes — the out-of-core path).
    rank / oversampling:
        Target rank ``d`` and extra range-sketch columns ``p``; the range
        sketch width is ``w = d + p`` and the co-range sketch is ``2w + 1``
        wide (Tropp et al.'s stability rule).  ``None`` (default) resolves
        ``p = max(10, 3d)`` — a single pass cannot power-iterate, so flat
        NetMF-style spectra need a wider range sketch than the rSVD's
        ``d + 10`` to reach the same downstream quality (the ``w = 4d``
        rule is the E18 ablation's knee; decaying spectra are fine with
        far less, and an explicit ``oversampling=10`` recovers the slim
        sketch).
    nnz_per_row:
        Sparse-sign sketch density ζ (see :mod:`repro.linalg.sketch`).
    seed:
        RNG seed or generator (one root draw per sketch, indexed per-column
        streams below it).
    precision:
        ``"double"`` (default) or ``"single"`` — the kernel-layer dtype
        policy: float32 operator/sketch/products with float64 accumulation
        in the sketch-width reductions and the core solve.
    workers:
        Thread count for the SPMMs; bit-identical at every width.
    symmetric:
        ``True`` → both sketched products come from one streamed pass and
        the core is recovered by ``eigh`` (callers that built the matrix
        symmetric, e.g. every NetMF matrix, say so; a non-square matrix
        is an error); ``False`` (default) → the general scheme (one forward
        + one adjoint pass, small SVD).  Nothing is probed.
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
    if oversampling is None:
        oversampling = max(10, 3 * rank)
    if oversampling < 0:
        raise FactorizationError(f"oversampling must be >= 0, got {oversampling}")
    width = min(rank + oversampling, min(rows, cols))
    if symmetric and rows != cols:
        raise FactorizationError(
            f"symmetric single-pass factorization needs a square matrix, "
            f"got {matrix.shape}"
        )
    if dtype == np.float32 and hasattr(matrix, "astype") and matrix.dtype != dtype:
        matrix = matrix.astype(dtype)  # cast the operator once (MKL s-path)
    co_width = _co_range_width(width, rows)

    with telemetry.span(
        "sketch.generate", width=width, co_width=co_width,
        nnz_per_row=nnz_per_row, symmetric=symmetric,
    ):
        omega = sparse_sign_sketch(
            cols, width, nnz_per_row=nnz_per_row, seed=rng, dtype=dtype
        )
        psi = sparse_sign_sketch(
            rows, co_width, nnz_per_row=nnz_per_row, seed=rng, dtype=dtype
        )
        telemetry.gauge("sketch.width").set(width)
        telemetry.gauge("sketch.density").set(sketch_density(omega))

    # --- the streamed pass(es): every read of A happens here -------------
    with telemetry.span(
        "sketch.pass", width=width, co_width=co_width, symmetric=symmetric
    ):
        if symmetric:
            # One pass computes both products: Y = AΩ and Z = AΨ, and by
            # symmetry Zᵀ = ΨᵀA is the left sketch for free.
            combined = sp.hstack([omega, psi], format="csc")
            staging = densify_sketch(combined)
            del combined
            products = _apply(matrix, staging, workers=workers)
            del staging  # free the sketch staging block before the core
            y = products[:, :width]
            z = products[:, width:]
            _pass_telemetry(matrix, width + co_width, 1)
        else:
            staging = densify_sketch(omega)
            y = _apply(matrix, staging, workers=workers)
            del staging
            staging = densify_sketch(psi)
            z = _apply(matrix, staging, transpose=True, workers=workers)
            del staging
            _pass_telemetry(matrix, width + co_width, 1)
            telemetry.counter("sketch.operator_passes").inc()

    # --- sketch-width core: small, dense, float64 ------------------------
    with telemetry.span(
        "sketch.core", width=width, co_width=co_width, symmetric=symmetric
    ):
        # ``y`` is dead past this point: a column slice of the one-pass
        # product (copied out here) or the general scheme's own product.
        q = cholesky_qr(np.ascontiguousarray(y), overwrite=True)
        psi_t_q = _sparse_cross(psi, q)  # ΨᵀQ, (2w+1) × w, float64
        if symmetric:
            # C = (ΨᵀQ)⁺ (ΨᵀA Q) ≈ QᵀAQ without ever forming X = QᵀA:
            # ΨᵀAQ = ZᵀQ, accumulated in float64 by the gram kernel.
            core, *_ = np.linalg.lstsq(psi_t_q, gram(z, q), rcond=None)
            core = 0.5 * (core + core.T)
            eigenvalues, eigenvectors = np.linalg.eigh(core)
            order = np.argsort(np.abs(eigenvalues), kind="stable")[::-1][:rank]
            spectrum = eigenvalues[order]
            u = q @ eigenvectors[:, order].astype(q.dtype, copy=False)
            sigma = np.abs(spectrum)
            signs = np.where(spectrum < 0.0, -1.0, 1.0).astype(u.dtype)
            vt = (u * signs[None, :]).T
        else:
            # General scheme: Zᵀ = ΨᵀA ≈ (ΨᵀQ)(QᵀA) → least-squares for
            # X ≈ QᵀA, then a small w×k SVD of X.
            x, *_ = np.linalg.lstsq(
                psi_t_q, z.T.astype(np.float64, copy=False), rcond=None
            )
            u_small, sigma_all, vt_all = np.linalg.svd(x, full_matrices=False)
            u = q @ u_small[:, :rank].astype(q.dtype, copy=False)
            sigma = sigma_all[:rank]
            vt = vt_all[:rank].astype(q.dtype, copy=False)
    return u, sigma, vt


def factorize(
    matrix: MatrixLike,
    rank: int,
    *,
    factorizer: Optional[str] = "rsvd",
    oversampling: Optional[int] = None,
    power_iterations: int = 2,
    nnz_per_row: int = SKETCH_NNZ_PER_ROW,
    seed: SeedLike = None,
    precision: str = "double",
    workers: Optional[int] = 1,
    symmetric: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch the ``factorizer`` knob to a factorization backend.

    ``"rsvd"`` (or ``None``) runs the paper's two-sided Gaussian randomized
    SVD — the same call as :func:`~repro.linalg.randomized_svd.
    randomized_svd` with these arguments, bit for bit.  ``"single_pass"``
    runs the SketchNE-style sketched factorization above.  Both backends
    take ``symmetric``: ``True`` lets the rSVD run its ``Aᵀ·`` passes on the
    row-blocked CSR kernel and lets the sketch get both products from one
    pass; ``False`` is the general scheme on both.  ``nnz_per_row`` is
    sketch-only and ignored by the rSVD; ``power_iterations`` is
    meaningless to the single-pass backend — by construction it never
    revisits the operator.  ``oversampling=None``
    resolves per backend: ``10`` for the rSVD, ``max(10, 3·rank)`` for the
    single-pass backend (see :func:`single_pass_svd`).
    """
    name = "rsvd" if factorizer is None else str(factorizer).replace("-", "_")
    if name == "rsvd":
        factors = randomized_svd(
            matrix,
            rank,
            oversampling=10 if oversampling is None else oversampling,
            power_iterations=power_iterations,
            seed=seed,
            precision=precision,
            workers=workers,
            symmetric=symmetric,
        )
    elif name == "single_pass":
        factors = single_pass_svd(
            matrix,
            rank,
            oversampling=oversampling,
            nnz_per_row=nnz_per_row,
            seed=seed,
            precision=precision,
            workers=workers,
            symmetric=symmetric,
        )
    else:
        raise FactorizationError(
            f"factorizer must be one of {FACTORIZERS}, got {factorizer!r}"
        )
    # Posterior accuracy probe (no-op without an active HealthRecorder):
    # fixed-seed probe vectors, serial products, float64 accumulation — the
    # check never consumes pipeline RNG and never perturbs the factors.
    health.check_factorization_residual(matrix, *factors)
    return factors
