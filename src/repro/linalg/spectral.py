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
Sparse BLAS.  They all run through :func:`repro.linalg.kernels.spmm`:
``workers`` threads them over row blocks (bit-identical at every width), the
Bessel coefficients are precomputed as one vector, the recurrence ping-pongs
a fixed set of ``lx0``/``lx1``/``lx2`` buffers with in-place axpy updates
(no per-term temporaries), and the row-normalized propagation operator
``D⁻¹(A + I)`` is cached on the flat graph object (``graph.flat()``) keyed by
dtype so repeated propagation calls do not rebuild it.
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
from repro.graph import GraphLike
from repro.graph.csr import CSRGraph
from repro.linalg.kernels import (
    SPMM_WORKSPACE_BYTES,
    gram_rescale,
    release_pages,
    resolve_precision,
    spmm,
    spmm_chunked,
)
from repro.utils.rng import SeedLike


def _offload_buffer(shape, dtype, offload_dir: str) -> np.ndarray:
    """A writable ``n×d`` scratch buffer backed by an *unlinked* temp file.

    The file is removed right after mapping, so no cleanup bookkeeping is
    needed — the disk space is reclaimed when the mapping is garbage
    collected — while the pages stay file-backed and therefore evictable:
    the kernel can write them out under memory pressure instead of holding
    the whole buffer in RSS (the point of the out-of-core mode).
    """
    os.makedirs(offload_dir, exist_ok=True)
    fd, path = tempfile.mkstemp(dir=offload_dir, prefix="cheb-", suffix=".buf")
    os.close(fd)
    try:
        buffer = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
    finally:
        os.unlink(path)
    return buffer


def _row_normalized_adjacency(graph: CSRGraph) -> sp.csr_matrix:
    """``D⁻¹(A + I)`` — ProNE adds the identity before normalizing."""
    n = graph.num_vertices
    adjacency = (graph.adjacency() + sp.eye(n, format="csr")).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
    return (sp.diags(inv) @ adjacency).tocsr()


def propagation_operator(graph: GraphLike, dtype=np.float64) -> sp.csr_matrix:
    """The cached row-normalized propagation operator ``D⁻¹(A + I)``.

    The float64 operator is built once per graph and memoized on the flat
    :class:`~repro.graph.csr.CSRGraph` (``graph.flat()``, itself kept on an
    encoded input); other dtypes are cast from the cached float64 build and
    memoized under their own key.  Callers must not mutate the returned
    matrix.
    """
    graph = graph.flat()
    dtype = np.dtype(dtype)
    if graph._op_cache is None:
        graph._op_cache = {}
    cache = graph._op_cache
    key = ("row_normalized", dtype.str)
    if key not in cache:
        base_key = ("row_normalized", np.dtype(np.float64).str)
        if base_key not in cache:
            cache[base_key] = _row_normalized_adjacency(graph)
        cache[key] = cache[base_key].astype(dtype, copy=False)
    return cache[key]


def _modulated_operator(da: sp.csr_matrix, mu: float) -> sp.csr_matrix:
    """``(I - da) - μI`` built in one pass over ``da``'s entries.

    ``A + I`` guarantees an explicit diagonal entry in every row of ``da``,
    so the modulated operator has exactly ``da``'s sparsity pattern:
    off-diagonal entries are ``-da_uv`` and diagonal entries are
    ``(1 - da_uu) - μ``, with that association.  Within each row the
    diagonal entry is moved to the front and the rest keep ``da``'s stored
    order — the first-occurrence merge order scipy's sparse subtraction
    produces for ``eye - da`` — so SPMM accumulation order, and hence every
    downstream bit, matches the historical two-``sp.eye`` construction
    without allocating any identity matrices.
    """
    n = da.shape[0]
    nnz = da.nnz
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(da.indptr))
    diagonal = da.indices == rows
    if int(diagonal.sum()) != n:
        # A row without an explicit diagonal entry (degenerate operator):
        # fall back to the structure-changing sparse arithmetic.
        eye = sp.eye(n, format="csr", dtype=da.dtype)
        return ((eye - da) - mu * eye).tocsr()
    data = np.negative(da.data)
    one = np.asarray(1.0, dtype=da.dtype)
    data[diagonal] = (one - da.data[diagonal]) - np.asarray(mu, dtype=da.dtype)
    # Permutation: each row's diagonal entry first, the others in order.
    positions = np.arange(nnz, dtype=np.int64)
    starts = da.indptr[:-1].astype(np.int64)
    perm = np.empty(nnz, dtype=np.int64)
    perm[starts] = positions[diagonal]
    slot_mask = np.ones(nnz, dtype=bool)
    slot_mask[starts] = False
    perm[positions[slot_mask]] = positions[~diagonal]
    return sp.csr_matrix(
        (data[perm], da.indices[perm], da.indptr), shape=da.shape, copy=False
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
        ping-pong buffers are unlinked temp-file memmaps under this
        directory and every SPMM streams row blocks through the bounded
        workspace of :func:`repro.linalg.kernels.spmm_chunked`, so the
        filter's resident set stays roughly one workspace plus the input —
        with bit-identical output (the chunked SPMM and the element-wise
        updates preserve every accumulation order).

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
    if order < 1:
        raise FactorizationError(f"order must be >= 1, got {order}")
    if order == 1:
        # Identity filter: a copy in the dtype ``precision`` resolves to,
        # like every higher order.
        return np.array(embedding, dtype=dtype, copy=True)

    with telemetry.span("propagation.operator"):
        da = propagation_operator(graph, dtype)
        modulated = _modulated_operator(da, mu)

    # Bessel coefficients i_r(θ), precomputed as one vector.
    coefficients = iv(np.arange(order), theta)

    # Out-of-core mode: buffers become evictable temp-file memmaps and the
    # SPMMs stream bounded row-block workspaces.  Both substitutions are
    # bit-transparent, so the two branches below differ only in residency.
    if offload_dir is not None:
        def alloc_like(template: np.ndarray) -> np.ndarray:
            return _offload_buffer(template.shape, template.dtype, offload_dir)

        def product(operator, operand, out):
            return spmm_chunked(operator, operand, out=out, workers=workers)

        _ew_block = max(1, SPMM_WORKSPACE_BYTES // max(1, x.shape[1] * x.itemsize))

        def elementwise(op, a, b, out):
            # Blocked traversal with per-range page release: the whole-array
            # element-wise updates are the residency hot spot (they fault
            # every page of their operands in), so stream them through the
            # same row-block budget as the chunked SPMM.  Bit-identical to
            # the one-shot call — element-wise ops have no cross-row
            # interaction — and only ever a no-op release for anonymous
            # operands such as the input embedding.
            b_is_array = isinstance(b, np.ndarray)
            for r0 in range(0, out.shape[0], _ew_block):
                r1 = min(out.shape[0], r0 + _ew_block)
                op(a[r0:r1], b[r0:r1] if b_is_array else b, out=out[r0:r1])
                release_pages(out, r0, r1)
                if a is not out:
                    release_pages(a, r0, r1)
                if b_is_array and b is not out and b is not a:
                    release_pages(b, r0, r1)
    else:
        alloc_like = np.empty_like

        def product(operator, operand, out):
            return spmm(operator, operand, out=out, workers=workers)

        def elementwise(op, a, b, out):
            op(a, b, out=out)

    # Chebyshev recurrence (ProNE's exact update rule) on ping-pong buffers:
    # lx0/lx1 hold the last two Chebyshev terms, `spare` receives the next
    # one, `work` holds SPMM/axpy intermediates.  Apart from the first two
    # terms, no n×d arrays are allocated inside the loop.
    from repro.telemetry import progress as progress_mod

    progress_mod.begin("propagation", total=order - 1)
    with telemetry.span("propagation.chebyshev_term", term=0):
        lx0 = x  # read-only alias; replaced by a real buffer at the first swap
        work = product(modulated, x, alloc_like(x))
        lx1 = product(modulated, work, alloc_like(x))
        elementwise(np.multiply, lx1, 0.5, lx1)
        elementwise(np.subtract, lx1, x, lx1)
        conv = alloc_like(x)
        elementwise(np.multiply, x, float(coefficients[0]), conv)
        elementwise(np.multiply, lx1, 2.0 * float(coefficients[1]), work)
        elementwise(np.subtract, conv, work, conv)
    progress_mod.task_completed("propagation")
    sign = 1.0
    spare: Optional[np.ndarray] = None
    for i in range(2, order):
        with telemetry.span("propagation.chebyshev_term", term=i) as span:
            if spare is None:
                spare = alloc_like(x)
            product(modulated, lx1, work)   # work = M lx1
            product(modulated, work, spare)  # spare = M²lx1
            elementwise(np.multiply, lx1, 2.0, work)
            elementwise(np.subtract, spare, work, spare)
            elementwise(np.subtract, spare, lx0, spare)        # spare = lx2
            elementwise(
                np.multiply, spare, sign * 2.0 * float(coefficients[i]), work
            )
            elementwise(np.add, conv, work, conv)
            sign = -sign
            released = lx0
            lx0, lx1, spare = lx1, spare, (None if released is x else released)
            # The rotated-out buffer is fully overwritten next iteration;
            # its pages can leave the resident set right now.
            if spare is not None:
                release_pages(spare)
        elapsed = getattr(span, "duration", None)
        if elapsed is not None:
            telemetry.histogram("propagation.term_seconds").observe(elapsed)
        progress_mod.task_completed("propagation")
    # One more smoothing hop through D⁻¹(A+I), as in ProNE.
    elementwise(np.subtract, x, conv, conv)
    if lx1 is not x:
        release_pages(lx1)
    if spare is not None:
        release_pages(spare)
    return product(da, conv, work)


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
    seed: SeedLike = None,
    precision: str = "double",
    workers: Optional[int] = 1,
    offload_dir: Optional[str] = None,
) -> np.ndarray:
    """Full ProNE enhancement: Chebyshev filter then re-orthogonalization.

    ``seed`` is accepted for interface uniformity (the step is
    deterministic).  ``precision`` picks the dtype of the filter and of the
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
