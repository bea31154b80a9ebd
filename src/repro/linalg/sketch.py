"""Sparse-sign sketch generation (the SketchNE / NetMF+ test matrices).

SketchNE (arXiv 2110.12782) replaces the two-sided Gaussian sketch of the
paper's Algorithm 3 with *sparse-sign* test matrices: a sketch column is a
sparse vector of random signs instead of a dense Gaussian, so generating the
sketch costs ``O(n·ζ)`` draws instead of ``O(n·(d+p))`` Gaussians, applying
it works through ordinary SPMM kernels, and — crucially for the single-pass
factorization in :mod:`repro.linalg.single_pass` — the sketched products can
be accumulated while the operator is streamed exactly once.

Construction (the Achlioptas/Li-style sparse random projection): entry
``(i, j)`` of the ``rows × width`` sketch is nonzero with probability
``q = ζ/width`` (``ζ`` = the expected nonzeros per row, default 8 — the
sparsity the SketchNE authors recommend), and a nonzero entry is
``±1/sqrt(q·rows)`` with equal probability, which normalizes the expected
squared column norm to 1.  Every operator row therefore contributes to ``ζ``
sketch columns in expectation, so the sketch covers all coordinates (unlike
per-column support sampling) while staying ``width/ζ`` times sparser than a
dense test matrix.

Determinism contract: column ``j`` is generated from its own RNG stream,
derived by batch index via :func:`repro.utils.rng.spawn_batch_rngs` — the
same indexed-stream device the sparsifier uses for its sampling batches.
The sketch is a pure function of ``(rows, width, nnz_per_row, seed)``:
bit-identical at every worker count and on both execution substrates
(generation is serial; parallelism only ever touches the SPMMs applying
it, which are bit-identical by the :mod:`repro.linalg.kernels` contract).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import FactorizationError
from repro.utils.rng import SeedLike, spawn_batch_rngs

# Expected nonzeros per operator row; ζ = 8 is the SketchNE/Tropp default
# ("a handful of nonzeros per row suffices in practice").
SKETCH_NNZ_PER_ROW = 8


def sparse_sign_sketch(
    rows: int,
    width: int,
    *,
    nnz_per_row: int = SKETCH_NNZ_PER_ROW,
    seed: SeedLike = None,
    dtype=np.float64,
) -> sp.csc_matrix:
    """A ``rows × width`` sparse-sign test matrix in CSC form.

    Parameters
    ----------
    rows:
        Operator dimension the sketch is applied to (``A @ S`` needs
        ``S.shape[0] == A.shape[1]``).
    width:
        Sketch width ``d + p`` (target rank plus oversampling).
    nnz_per_row:
        Expected nonzeros per sketch *row* ζ (density ``ζ/width``, capped at
        1).  Larger ζ buys sketch quality; ζ=8 matches dense-Gaussian range
        finding to within noise on the matrices this library factorizes.
    seed:
        Seed or generator.  A generator input consumes exactly **one** draw
        (the root entropy for the per-column streams), so callers can thread
        a pipeline RNG through without making the sketch depend on how much
        of the stream was consumed by later stages.
    dtype:
        Value dtype of the sketch (float32 for the single-precision path).

    Returns
    -------
    scipy.sparse.csc_matrix
        Column-compressed sketch: each column's support was drawn from that
        column's own indexed RNG stream, so the matrix is reproducible
        column-by-column and bit-identical however the downstream products
        are parallelized.
    """
    if rows < 1:
        raise FactorizationError(f"sketch rows must be >= 1, got {rows}")
    if width < 1:
        raise FactorizationError(f"sketch width must be >= 1, got {width}")
    if nnz_per_row < 1:
        raise FactorizationError(
            f"nnz_per_row must be >= 1, got {nnz_per_row}"
        )
    density = min(float(nnz_per_row) / float(width), 1.0)
    scale = 1.0 / np.sqrt(density * rows)
    column_rngs = spawn_batch_rngs(seed, width)

    indices = []
    signs = []
    indptr = np.zeros(width + 1, dtype=np.int64)
    for j, rng in enumerate(column_rngs):
        support = np.flatnonzero(rng.random(rows) < density)
        if support.size == 0:
            # Never emit an all-zero column: a zero sketch column wastes a
            # rank slot and can break downstream orthonormalization.  One
            # forced entry keeps the column useful and stays deterministic.
            support = rng.integers(0, rows, size=1).astype(np.int64)
        column_signs = rng.integers(0, 2, size=support.size).astype(np.int8)
        indices.append(support.astype(np.int64))
        signs.append(column_signs)
        indptr[j + 1] = indptr[j] + support.size

    resolved = np.dtype(dtype)
    raw_signs = np.concatenate(signs).astype(resolved.type)
    data = (raw_signs * 2 - 1) * resolved.type(scale)
    sketch = sp.csc_matrix(
        (data, np.concatenate(indices), indptr), shape=(rows, width)
    )
    sketch.has_sorted_indices = True  # flatnonzero yields ascending rows
    return sketch


def sketch_density(sketch: sp.spmatrix) -> float:
    """Fraction of stored entries (diagnostics / telemetry)."""
    rows, width = sketch.shape
    total = max(1, rows * width)
    return float(sketch.nnz) / float(total)


def densify_sketch(
    sketch: sp.spmatrix, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Materialize the sketch as one C-contiguous dense staging block.

    The streamed pass computes ``A @ S`` through :func:`repro.linalg.kernels.
    spmm`, whose dense operand must be a contiguous array; this is
    the only ``rows × width`` dense allocation the sketch ever costs, and
    callers free it as soon as the pass finishes.
    """
    dense = sketch.toarray()
    if dtype is not None and dense.dtype != np.dtype(dtype):
        dense = dense.astype(dtype)
    return np.ascontiguousarray(dense)
