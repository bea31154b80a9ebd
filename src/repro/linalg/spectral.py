r"""Spectral propagation — ProNE's Chebyshev band-pass filter (paper §3.2/4.3).

Step 2 of LightNE enhances the factorized embedding ``X`` by applying a low
degree polynomial of the normalized graph Laplacian:
``X ← Σ_{r=0}^{k} c_r 𝓛^r X`` with Chebyshev coefficients and ``k ≈ 10``.

We implement ProNE's concrete instantiation: the Gaussian band-pass kernel
``g(λ) = exp(-((λ - μ)² - 1)·θ/2)`` expanded in Chebyshev polynomials whose
coefficients are modified Bessel functions ``i_r(θ)`` (``scipy.special.iv``),
evaluated with the three-term recurrence on the *modulated* Laplacian
``M = L - μI`` where ``L = I - D⁻¹(A + I)`` (self-loops added for stability).
The filtered signal is re-orthogonalized to ``U_d Σ_d^{1/2}`` as in ProNE's
``get_embedding_dense`` — through the ``d×d`` Gram matrix
(:func:`repro.linalg.kernels.gram_rescale`) instead of an ``n×d`` dense SVD.

Every matrix product here is an SPMM between a sparse ``n × n`` operator and
the dense ``n × d`` embedding — the operation the paper offloads to MKL
Sparse BLAS.  They all run through :mod:`repro.linalg.kernels`: ``workers``
threads them over nnz-balanced row ranges (bit-identical at every width),
the Bessel coefficients are precomputed as one vector, and the recurrence
holds four ``n×d`` buffers whatever the order — each term's second product
is :func:`~repro.linalg.kernels.spmm_fused` with the term's update as its
epilogue, so it never exists whole and ``lx2`` overwrites the retiring
``lx0``.  The modulated operator is built one row block at a time, and the
row-normalized propagation operator ``D⁻¹(A + I)`` is cached on the
:class:`~repro.graph.csr.CSRGraph` in the dtype asked for, so repeated
propagation calls do not rebuild it.
``precision="single"`` runs the same filter and the same rescale in float32;
nothing else depends on the precision.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import iv

from repro import telemetry
from repro.errors import FactorizationError
from repro.graph.csr import CSRGraph
from repro.linalg import kernels
from repro.linalg.kernels import gram_rescale, release_pages, resolve_precision, spmm


def _offload_buffer(shape, dtype, offload_dir: str) -> np.ndarray:
    """A writable ``n×d`` scratch buffer backed by an *unlinked* temp file.

    The file is removed right after mapping, so no cleanup bookkeeping is
    needed — the disk space is reclaimed when the mapping is garbage
    collected — while the pages stay file-backed and therefore evictable:
    the kernel can write them out under memory pressure instead of holding
    the whole buffer in RSS (the point of the out-of-core mode).  A
    directory that cannot be created or written is a
    :class:`~repro.errors.FactorizationError` naming it.
    """
    try:
        os.makedirs(offload_dir, exist_ok=True)
        fd, path = tempfile.mkstemp(dir=offload_dir, prefix="cheb-", suffix=".buf")
        os.close(fd)
        try:
            return np.memmap(path, dtype=dtype, mode="w+", shape=shape)
        finally:
            os.unlink(path)
    except OSError as error:
        raise FactorizationError(
            f"cannot create an offload buffer under {offload_dir!r}: {error}"
        ) from error


def _release_rows(r0: int, r1: int, *buffers: np.ndarray) -> None:
    for buffer in buffers:
        release_pages(buffer, r0, r1)


def _row_normalized_adjacency(graph: CSRGraph) -> sp.csr_matrix:
    """``D⁻¹(A + I)`` — ProNE adds the identity before normalizing."""
    n = graph.num_vertices
    adjacency = (graph.adjacency() + sp.eye(n, format="csr")).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
    return (sp.diags(inv) @ adjacency).tocsr()


def propagation_operator(graph: CSRGraph, dtype=np.float64) -> sp.csr_matrix:
    """The cached row-normalized propagation operator ``D⁻¹(A + I)``.

    Built once per graph and dtype and memoized on the
    :class:`~repro.graph.csr.CSRGraph` under that dtype only: the operator
    is always built in float64 and other dtypes are cast from that build,
    which is dropped again, so a float32 run never pins a float64 copy.
    Callers must not mutate the returned matrix.
    """
    dtype = np.dtype(dtype)
    if graph._op_cache is None:
        graph._op_cache = {}
    cache = graph._op_cache
    key = ("row_normalized", dtype.str)
    if key not in cache:
        cache[key] = _row_normalized_adjacency(graph).astype(dtype, copy=False)
    return cache[key]


# Stored entries per row block of :func:`_modulated_operator`'s build: its
# transient is a few arrays of this length, whatever the operator's nnz.
OPERATOR_BLOCK_NNZ = 1 << 16


def _modulated_operator(da: sp.csr_matrix, mu: float) -> sp.csr_matrix:
    """``(I - da) - μI`` built one row block at a time from ``da``'s entries.

    ``A + I`` guarantees an explicit diagonal entry in every row of ``da``,
    so the modulated operator has exactly ``da``'s sparsity pattern (and
    shares its ``indptr``): off-diagonal entries are ``-da_uv`` and diagonal
    entries are ``(1 - da_uu) - μ``, with that association.  Within each row
    the diagonal entry is moved to the front and the rest keep ``da``'s
    stored order — the first-occurrence merge order scipy's sparse
    subtraction produces for ``eye - da`` — so SPMM accumulation order, and
    hence every downstream bit, matches the historical two-``sp.eye``
    construction without allocating any identity matrices.  The output's
    ``data``/``indices`` are allocated once and filled block by block
    (about :data:`OPERATOR_BLOCK_NNZ` entries each), so the build's
    transient does not grow with nnz.
    """
    n = da.shape[0]
    indptr = da.indptr
    data = np.empty_like(da.data)
    indices = np.empty_like(da.indices)
    one = np.asarray(1.0, dtype=da.dtype)
    shift = np.asarray(mu, dtype=da.dtype)
    parts = max(1, -(-da.nnz // OPERATOR_BLOCK_NNZ))
    for r0, r1 in kernels.balanced_row_ranges(indptr, parts):
        lo, hi = int(indptr[r0]), int(indptr[r1])
        rows = np.repeat(
            np.arange(r0, r1, dtype=indices.dtype), np.diff(indptr[r0 : r1 + 1])
        )
        columns = da.indices[lo:hi]
        values = da.data[lo:hi]
        diagonal = columns == rows
        if not np.array_equal(rows[diagonal], np.arange(r0, r1)):
            # A row without exactly one explicit diagonal entry (degenerate
            # operator): fall back to the structure-changing arithmetic.
            eye = sp.eye(n, format="csr", dtype=da.dtype)
            return ((eye - da) - mu * eye).tocsr()
        # Each row's diagonal entry first, the others in stored order.
        starts = indptr[r0:r1] - lo
        rest = np.ones(hi - lo, dtype=bool)
        rest[starts] = False
        block_data, block_indices = data[lo:hi], indices[lo:hi]
        block_data[starts] = (one - values[diagonal]) - shift
        block_indices[starts] = np.arange(r0, r1, dtype=indices.dtype)
        off = ~diagonal
        block_data[rest] = np.negative(values[off])
        block_indices[rest] = columns[off]
    return sp.csr_matrix((data, indices, indptr), shape=da.shape, copy=False)


def check_filter(order: int, mu: float, theta: float) -> None:
    """Reject an ``order`` below 1 and a non-finite ``mu`` or ``theta``."""
    if order < 1:
        raise FactorizationError(f"order must be >= 1, got {order}")
    if not (np.isfinite(mu) and np.isfinite(theta)):
        raise FactorizationError(
            f"mu and theta must be finite, got mu={mu}, theta={theta}"
        )


def chebyshev_gaussian_filter(
    graph,
    embedding: np.ndarray,
    *,
    order: int = 10,
    mu: float = 0.2,
    theta: float = 0.5,
    precision: str = "double",
    workers: Optional[int] = 1,
    offload_dir: Optional[str] = None,
) -> np.ndarray:
    """Apply the Chebyshev-expanded Gaussian filter to ``embedding``.

    Parameters
    ----------
    graph:
        The input graph (provides the propagation operator).
    embedding:
        Dense ``(n, d)`` embedding matrix ``X``.
    order:
        Polynomial degree ``k`` (paper sets ~10).
    mu, theta:
        Band-pass center and width of the Gaussian kernel.
    precision:
        ``"double"`` (default) or ``"single"`` (float32 operator, buffers
        and output).
    workers:
        Thread count for the SPMMs (bit-identical at every width).
    offload_dir:
        When set (the out-of-core mode), the recurrence's four ``n×d``
        buffers are unlinked temp-file memmaps under this directory instead
        of anonymous arrays.  Nothing else changes: the same products and
        updates run on them, releasing each finished row block, so the
        filter's resident set stays roughly one block per buffer plus the
        input — with bit-identical output.

    Returns
    -------
    The propagated (unnormalized) ``(n, d)`` matrix (a memmap when
    ``offload_dir`` is set); callers usually pass it through
    :func:`rescale_embedding`, which materializes a fresh in-RAM array.
    """
    dtype = resolve_precision(precision)
    x = np.ascontiguousarray(embedding, dtype=dtype)
    if x.ndim != 2 or x.shape[0] != graph.num_vertices:
        raise FactorizationError(
            f"embedding shape {x.shape} incompatible with n={graph.num_vertices}"
        )
    check_filter(order, mu, theta)
    if order == 1:
        # Identity filter: a copy in the dtype ``precision`` resolves to,
        # like every higher order.
        return np.array(embedding, dtype=dtype, copy=True)

    with telemetry.span("propagation.operator"):
        da = propagation_operator(graph, dtype)
        modulated = _modulated_operator(da, mu)

    # Bessel coefficients i_r(θ), precomputed as one vector.
    coefficients = iv(np.arange(order), theta)

    # Residency is where the buffers live — anonymous memory, or evictable
    # temp-file memmaps in the out-of-core mode — and nothing below depends
    # on it: ``spmm`` writes either kind in place and ``release_pages`` is a
    # no-op for anything but a shared file mapping.
    def allocate() -> np.ndarray:
        if offload_dir is None:
            return np.empty_like(x)
        return _offload_buffer(x.shape, x.dtype, offload_dir)

    # The first term's and the final hop's element-wise updates sweep row
    # blocks of the SPMM's own byte bound (one block in RAM at any size run
    # so far) and release each finished block: they fault every page of
    # their operands in, so unblocked they would be the residency hot spot.
    # Element-wise ops have no cross-row interaction, so the block height
    # never changes a bit.
    n, row_bytes = x.shape[0], max(1, x.shape[1] * x.itemsize)
    height = max(1, kernels.SPMM_WORKSPACE_BYTES // row_bytes)
    blocks = [(r0, min(n, r0 + height)) for r0 in range(0, n, height)]

    # Chebyshev recurrence (ProNE's exact update rule) on four n×d buffers:
    # lx0/lx1 hold the last two Chebyshev terms, `conv` the running sum and
    # `work` the first product of each term.  The second product of a term
    # never exists whole: `spmm_fused` hands it over one sub-block at a time
    # and the update writes lx2 over the retiring lx0 (only the first such
    # term, where lx0 is the caller's `x`, needs a buffer of its own).
    from repro.telemetry import progress as progress_mod

    progress_mod.begin("propagation", total=order - 1)
    with telemetry.span("propagation.chebyshev_term", term=0):
        lx0 = x  # read-only alias, never written
        work = spmm(modulated, x, out=allocate(), workers=workers)
        lx1 = spmm(modulated, work, out=allocate(), workers=workers)
        conv = allocate()
        first, second = float(coefficients[0]), 2.0 * float(coefficients[1])
        for r0, r1 in blocks:
            np.multiply(lx1[r0:r1], 0.5, out=lx1[r0:r1])
            np.subtract(lx1[r0:r1], x[r0:r1], out=lx1[r0:r1])
            np.multiply(x[r0:r1], first, out=conv[r0:r1])
            np.multiply(lx1[r0:r1], second, out=work[r0:r1])
            np.subtract(conv[r0:r1], work[r0:r1], out=conv[r0:r1])
            _release_rows(r0, r1, lx1, work, conv)
    progress_mod.task_completed("propagation")
    sign = 1.0
    for i in range(2, order):
        with telemetry.span("propagation.chebyshev_term", term=i) as span:
            lx2 = allocate() if lx0 is x else lx0
            scale = sign * 2.0 * float(coefficients[i])
            spmm(modulated, lx1, out=work, workers=workers)  # work = M lx1
            kernels.spmm_fused(
                modulated, work,
                _term_update(lx0, lx1, lx2, conv, scale), workers=workers,
            )
            # The second product gathered arbitrary rows of `work`, which the
            # next term overwrites whole.
            release_pages(work)
            sign = -sign
            lx0, lx1 = lx1, lx2
        elapsed = getattr(span, "duration", None)
        if elapsed is not None:
            telemetry.histogram("propagation.term_seconds").observe(elapsed)
        progress_mod.task_completed("propagation")
    # One more smoothing hop through D⁻¹(A+I), as in ProNE.
    for r0, r1 in blocks:
        np.subtract(x[r0:r1], conv[r0:r1], out=conv[r0:r1])
        release_pages(conv, r0, r1)
    for buffer in (lx0, lx1):
        if buffer is not x:
            release_pages(buffer)
    return spmm(da, conv, out=work, workers=workers)


def _term_update(lx0, lx1, lx2, conv, scale: float):
    """The epilogue of a term's second product ``M·work``, per sub-block:
    ``lx2 = (M·work − 2·lx1) − lx0`` and ``conv += scale·lx2`` — the same
    ufuncs in the same order as the whole-array update, so the same bits.
    ``lx2`` may be ``lx0``'s own buffer: each row is read before written."""

    def update(r0, r1, product, scratch):
        np.multiply(lx1[r0:r1], 2.0, out=scratch)
        np.subtract(product, scratch, out=product)
        np.subtract(product, lx0[r0:r1], out=lx2[r0:r1])
        np.multiply(lx2[r0:r1], scale, out=scratch)
        np.add(conv[r0:r1], scratch, out=conv[r0:r1])
        _release_rows(r0, r1, lx0, lx1, lx2, conv)

    return update


def rescale_embedding(
    matrix: np.ndarray,
    dimension: Optional[int] = None,
    *,
    method: str = "gram",
) -> np.ndarray:
    """Re-orthogonalize via ``U_d · Σ_d^{1/2}``, then L2-ish rescale.

    Mirrors ProNE's ``get_embedding_dense``: project the propagated signal
    back onto its top singular directions so columns stay well-conditioned.
    ``method="gram"`` (default, the only path the pipelines take) is the
    Gram-trick ``eigh`` of the ``d×d`` Gram matrix
    (:func:`repro.linalg.kernels.gram_rescale`): it keeps the input dtype,
    never materializes an ``n×d`` temporary beyond the output, and returns a
    fresh in-RAM array whatever backs the input.  ``method="svd"`` is the
    full dense float64 SVD, kept as the oracle the tests compare against
    (equal up to column sign).
    """
    if method == "gram":
        return gram_rescale(matrix, dimension)
    if method != "svd":
        raise FactorizationError(
            f"rescale method must be 'gram' or 'svd', got {method!r}"
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    if dimension is None:
        dimension = matrix.shape[1]
    if dimension < 1 or dimension > matrix.shape[1]:
        raise FactorizationError(
            f"dimension {dimension} invalid for matrix with {matrix.shape[1]} columns"
        )
    u, sigma, _ = np.linalg.svd(matrix, full_matrices=False)
    u = u[:, :dimension]
    sigma = sigma[:dimension]
    return u * np.sqrt(sigma)[None, :]


def spectral_propagation(
    graph,
    embedding: np.ndarray,
    *,
    order: int = 10,
    mu: float = 0.2,
    theta: float = 0.5,
    precision: str = "double",
    workers: Optional[int] = 1,
    offload_dir: Optional[str] = None,
) -> np.ndarray:
    """Full ProNE enhancement: Chebyshev filter then re-orthogonalization.

    The step is deterministic.  ``precision`` picks the dtype of the filter and of the
    result and nothing else.  ``offload_dir`` enables the filter's
    out-of-core buffer mode (see :func:`chebyshev_gaussian_filter`); the
    rescale always returns a fresh in-RAM array, so no memmap escapes this
    function.
    """
    filtered = chebyshev_gaussian_filter(
        graph, embedding, order=order, mu=mu, theta=theta,
        precision=precision, workers=workers, offload_dir=offload_dir,
    )
    with telemetry.span("propagation.rescale", dimension=embedding.shape[1]):
        return rescale_embedding(filtered, embedding.shape[1])
