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
holds four ``n×d`` in-RAM arrays whatever the order — each term's second
product is :func:`~repro.linalg.kernels.spmm_fused` with the term's update as
its epilogue, so it never exists whole and ``lx2`` overwrites the retiring
``lx0``.  ``A + I`` and the modulated operator are built one row block at a
time, and the row-normalized propagation operator ``D⁻¹(A + I)`` is built in
place on ``A + I`` and cached on the :class:`~repro.graph.csr.CSRGraph` in
the dtype asked for, so repeated propagation calls do not rebuild it.
``precision="single"`` runs the same filter and the same rescale in float32;
nothing else depends on the precision.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import iv

from repro import telemetry
from repro.errors import FactorizationError
from repro.graph.csr import CSRGraph
from repro.linalg import kernels
from repro.linalg.kernels import gram_rescale, resolve_precision, spmm
from repro.utils.parallel import single_blas_thread


# Stored entries per row block of the ``A + I`` and modulated-operator builds
# and of the float64 operator's row reversal: their transient is a few arrays
# of this length, whatever the operator's nnz.
OPERATOR_BLOCK_NNZ = 1 << 16


def _adjacency_plus_identity(graph: CSRGraph) -> sp.csr_matrix:
    """``(graph.adjacency() + sp.eye(n)).tocsr()``, array for array, without
    building ``A``: each row block of about :data:`OPERATOR_BLOCK_NNZ`
    entries is scipy's own sum of a CSR view of the graph's arrays (indices
    in the result's index dtype) and the block's identity rows, copied into
    the preallocated result.

    scipy merges a canonical row (strictly increasing) with its diagonal
    entry row by row, so the blocks' sums are the whole sum's rows.  A block
    that is not canonical takes the verbatim expression, whose general merge
    is chosen for the whole matrix at once and orders every row differently.
    """
    n = graph.num_vertices
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    nnz = int(offsets[-1])
    index_dtype = np.int32 if nnz + n <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    indices = np.empty(nnz + n, dtype=index_dtype)
    data = np.empty(nnz + n, dtype=np.float64)
    end = 0  # entries written so far
    parts = max(1, -(-nnz // OPERATOR_BLOCK_NNZ))
    for r0, r1 in kernels.balanced_row_ranges(offsets, parts):
        lo, hi = int(offsets[r0]), int(offsets[r1])
        rows = r1 - r0
        ones = np.ones(max(hi - lo, rows))
        values = (
            ones[: hi - lo] if weights is None
            else np.asarray(weights[lo:hi], dtype=np.float64)
        )
        block = sp.csr_matrix(
            (
                values,
                np.asarray(targets[lo:hi], dtype=index_dtype),
                np.asarray(offsets[r0 : r1 + 1] - lo, dtype=index_dtype),
            ),
            shape=(rows, n), copy=False,
        )
        if not block.has_canonical_format:
            return (graph.adjacency() + sp.eye(n, format="csr")).tocsr()
        identity = sp.csr_matrix(
            (
                ones[:rows],
                np.arange(r0, r1, dtype=index_dtype),
                np.arange(rows + 1, dtype=index_dtype),
            ),
            shape=(rows, n), copy=False,
        )
        total = block + identity
        indices[end : end + total.nnz] = total.indices
        data[end : end + total.nnz] = total.data
        indptr[r0 + 1 : r1 + 1] = end + total.indptr[1:]
        end += total.nnz
    return sp.csr_matrix(
        (data[:end], indices[:end], indptr), shape=(n, n), copy=False
    )


def _row_normalized_adjacency(graph: CSRGraph, dtype=np.float64) -> sp.csr_matrix:
    """``D⁻¹(A + I)`` in ``dtype`` — ProNE adds the identity before normalizing.

    ``A + I`` is the one matrix the build allocates: its rows are scaled in
    place (the products ``diags(1/d) @ (A + I)`` computes) and a float32
    operator casts only ``data``.  Entries that come out zero are dropped,
    as that product and scipy's cast drop them.  Each row keeps the stored
    order the operator has always had, because it fixes every SPMM's
    accumulation order: ascending in float32 (the order of ``A + I``, to
    which scipy's cast re-sorted), descending in float64 (the order scipy's
    sparse product emits), reversed in place one block of about
    :data:`OPERATOR_BLOCK_NNZ` entries at a time.
    """
    adjacency = _adjacency_plus_identity(graph)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
    kernels.scale_csr_rows(adjacency, inv)
    operator = kernels.cast_csr(adjacency, dtype)
    operator.eliminate_zeros()
    if operator.dtype != np.float64:
        return operator
    indptr, data, indices = operator.indptr, operator.data, operator.indices
    parts = max(1, -(-operator.nnz // OPERATOR_BLOCK_NNZ))
    for r0, r1 in kernels.balanced_row_ranges(indptr, parts):
        lo, hi = int(indptr[r0]), int(indptr[r1])
        ptr = indptr[r0 : r1 + 1] - lo
        # Entry k of a row spanning [start, end) moves to start + end - 1 - k.
        order = np.repeat(ptr[:-1] + ptr[1:] - 1, np.diff(ptr))
        order -= np.arange(hi - lo, dtype=order.dtype)
        data[lo:hi] = data[lo:hi][order]
        indices[lo:hi] = indices[lo:hi][order]
    # A fresh matrix object: no sortedness flag cached on ``A + I`` survives.
    return sp.csr_matrix((data, indices, indptr), shape=operator.shape, copy=False)


def propagation_operator(graph: CSRGraph, dtype=np.float64) -> sp.csr_matrix:
    """The cached row-normalized propagation operator ``D⁻¹(A + I)``.

    Built once per graph and dtype and memoized on the
    :class:`~repro.graph.csr.CSRGraph` under that dtype only, so a float32
    run never pins a float64 copy.  Callers must not mutate the returned
    matrix.
    """
    dtype = np.dtype(dtype)
    if graph._op_cache is None:
        graph._op_cache = {}
    cache = graph._op_cache
    key = ("row_normalized", dtype.str)
    if key not in cache:
        cache[key] = _row_normalized_adjacency(graph, dtype)
    return cache[key]


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
        Accepted and ignored; kept because ``benchmarks/perf`` passes it.
        The filter's buffers are always anonymous in-RAM arrays.

    Returns
    -------
    The propagated (unnormalized) ``(n, d)`` matrix; callers usually pass it
    through :func:`rescale_embedding`.
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

    # Chebyshev recurrence (ProNE's exact update rule) on four n×d buffers:
    # lx0/lx1 hold the last two Chebyshev terms, `conv` the running sum and
    # `work` the first product of each term.  The second product of a term
    # never exists whole: `spmm_fused` hands it over one sub-block at a time
    # and the update writes lx2 over the retiring lx0 (only the first such
    # term, where lx0 is the caller's `x`, needs a buffer of its own).
    with telemetry.span("propagation.chebyshev_term", term=0):
        lx0 = x  # read-only alias, never written
        work = spmm(modulated, x, out=np.empty_like(x), workers=workers)
        lx1 = spmm(modulated, work, out=np.empty_like(x), workers=workers)
        conv = np.empty_like(x)
        np.multiply(lx1, 0.5, out=lx1)
        np.subtract(lx1, x, out=lx1)
        np.multiply(x, float(coefficients[0]), out=conv)
        np.multiply(lx1, 2.0 * float(coefficients[1]), out=work)
        np.subtract(conv, work, out=conv)
    sign = 1.0
    for i in range(2, order):
        with telemetry.span("propagation.chebyshev_term", term=i):
            lx2 = np.empty_like(x) if lx0 is x else lx0
            scale = sign * 2.0 * float(coefficients[i])
            spmm(modulated, lx1, out=work, workers=workers)  # work = M lx1
            kernels.spmm_fused(
                modulated, work,
                _term_update(lx0, lx1, lx2, conv, scale), workers=workers,
            )
            sign = -sign
            lx0, lx1 = lx1, lx2
    # One more smoothing hop through D⁻¹(A+I), as in ProNE.
    np.subtract(x, conv, out=conv)
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

    Both run under :func:`~repro.utils.parallel.single_blas_thread`:
    ``workers`` threads the filter's SPMMs and numpy's BLAS (the rescale's
    Gram and map-back) stays at one thread, so ``workers`` is the step's
    whole thread budget and the result does not depend on the BLAS thread
    count.  The step is deterministic.  ``precision`` picks the dtype of the
    filter and of the result and nothing else.  ``offload_dir`` is accepted
    and ignored (see :func:`chebyshev_gaussian_filter`).
    """
    with single_blas_thread():
        filtered = chebyshev_gaussian_filter(
            graph, embedding, order=order, mu=mu, theta=theta,
            precision=precision, workers=workers, offload_dir=offload_dir,
        )
        with telemetry.span("propagation.rescale", dimension=embedding.shape[1]):
            return rescale_embedding(filtered, embedding.shape[1])
