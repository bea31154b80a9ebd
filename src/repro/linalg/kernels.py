"""Shared parallel linear-algebra kernels (the MKL analog).

The paper's dense stages all run on MKL routines (``mkl_sparse_s_mm`` /
``sgeqrf`` / ``sgesvd``) with every SPMM threaded.  This module is the Python
counterpart those stages dispatch through, and the **one** BLAS-3
tall-skinny layer of the library: float64 and float32 pipelines call the same
functions and differ in dtype only.

* :func:`spmm` — the one threaded row-blocked sparse @ dense product.
  Contiguous row blocks of the CSR operator — one per worker at equal
  shares of its stored entries (:func:`balanced_row_ranges`) — are
  dispatched onto a thread pool that
  :func:`repro.utils.parallel.parallel_map` starts for the call and shuts
  down when it returns; each block calls scipy's compiled ``csr_matvecs``
  kernel, which releases the GIL, writing into a disjoint slice of one
  preallocated output.  A :class:`TiledCSR` operator stores its entries
  column tile by column tile (:class:`ColumnTiles`), and each block calls
  the kernel once per tile, in order, onto rows zeroed once: a tile's
  entries gather only from its band of dense rows, ``TILE_BYTES`` that
  stay in a core's L2, read in place.  A CSR operator is the one-tile
  case.  CSC operators (the ``Aᵀ`` side of Algorithm 3 on a non-symmetric
  matrix) are parallelized over column chunks of the dense block instead.
* :func:`spmm_fused` — the same product handed to the caller's epilogue
  one row sub-block at a time (``FUSED_BLOCK_BYTES``, tall enough that a
  tile's band serves many rows) from per-worker scratch the calling thread
  allocates, so it never exists whole; the Chebyshev filter applies each
  term's update there.  It calls the compiled kernel through the same
  helper as :func:`spmm`, with the same bits and the same counters.
* :func:`resolve_precision` — the dtype policy mirroring MKL's ``s``/``d``
  routine split: ``"single"`` casts the operator and sketch once and keeps
  the whole pipeline in float32; ``"double"`` is numpy's default.
* :func:`gram` — blocked ``AᵀB`` with float64 accumulation, so the small
  ``d×d`` / ``sketch×sketch`` reductions of a float32 pipeline keep
  double-precision sums (the one place MKL's ``s`` routines lose the most
  accuracy).
* :func:`cholesky_qr` — the tall-skinny orthonormalization (Algorithm 3's
  ``sgeqrf``/``sorgqr``) as CholeskyQR2: Gram → Cholesky → triangular
  solve applied in place, all BLAS-3.  :func:`orthonormalize` names it ``"cholesky"`` next
  to the Householder oracle ``"qr"``.
* :func:`gram_rescale` — ProNE's re-orthogonalization without the ``n×d``
  dense SVD: ``eigh`` of the ``d×d`` Gram matrix recovers the same
  ``U_d Σ_d^{1/2}`` up to column sign at a fraction of the cost and memory.
* :func:`scale_csr_rows` / :func:`scale_csr_columns` / :func:`cast_csr` /
  :func:`tile_csr` / :func:`add_canonical_csr` — the in-place builds of the
  sparse operators the dense stages read: a diagonal scaling multiplies
  ``data`` where it lies (the products ``diags(x) @ A`` / ``A @ diags(x)``
  compute, entry for entry), a precision cast copies ``data`` only (in
  column tiles where they pay), and a canonical sum is merged by scipy's
  compiled kernel straight into the caller's arrays.

**Orthogonality contract** (stated here once; enforced by
``tests/contracts/test_tall_skinny.py``).  With ``eps`` the unit roundoff of
the block's dtype and ``cond`` its 2-norm condition number, read off the
Gram matrix's extreme eigenvalues (the smallest measured again on the block
where it is below the Gram matrix's own rounding):

* every block :func:`cholesky_qr` accepts comes back with
  ``‖QᵀQ − I‖_max ≤ 1e3·eps`` and ``range(Q) = range(block)``;
* ``cond² ≤ 100`` (:data:`ONE_PASS_COND_SQ`) takes one pass (its loss is
  ``~eps·cond²``); up to ``cond² ≤ min(1/eps², 1/eps₆₄)``
  (:func:`cond_sq_limit` — ``cond ≤ 1/√eps₆₄`` for float64, ``cond ≤
  1/eps₃₂`` for float32) a second pass repairs the first.  One formula for
  both dtypes because the Gram matrix is float64 on both (its error is
  ``~eps₆₄·cond²``) while the solve runs in the block's dtype (``~eps·cond``);
* beyond that limit — rank-deficient blocks included — and whenever the Gram
  matrix does not factor or the repair pass finds the block still poorly
  conditioned, Householder QR takes over and
  ``linalg.cholesky_qr_fallbacks`` counts it;
* a block with non-finite entries raises
  :class:`~repro.errors.FactorizationError` (never a NaN basis);
* the input is untouched unless the caller passes ``overwrite=True``, in
  which case the result lives in the input's memory.

**Bit-identity.**  The compiled kernel adds each stored entry's
contribution onto its output row in stored order, and every output row is
written by exactly one worker.  A row's sum therefore depends only on the
order of its entries: the same for every worker count and block cut, and
for every tile count whenever the tile walk lists each row's entries in
their stored order.  :class:`ColumnTiles` tiles only such operators — rows
ascending by column (the float32 operators, walked first tile to last),
descending (the float64 propagation operator, walked last to first), or
either after one leading entry (the modulated operator's diagonal, in a
leading phase) — and keeps the one-tile layout for any other order.  CSC
products compute each output column with the same compiled per-column
loop as the serial product.  All of it is ``matrix @ dense`` bit for bit.

**Threading model.**  ``workers`` is the whole thread budget of the dense
stages.  Each sparse product runs on a pool of ``workers`` threads that
its :func:`repro.utils.parallel.parallel_map` call starts and joins; the
tall-skinny steps between them (:func:`gram`, :func:`cholesky_qr`, the map
back, :func:`gram_rescale`) are numpy BLAS calls, and the rSVD on a sparse
or implicit operator and the spectral propagation run them under
:func:`repro.utils.parallel.single_blas_thread` — numpy's BLAS at one
thread.  Its own pool would otherwise keep spinning on the cores the next
sparse product needs, and the products' bits would follow the BLAS thread
count.  A dense operand (NetMF's ``np.matmul`` branch of :func:`spmm`)
keeps threaded BLAS: there BLAS *is* the product's parallelism.

Telemetry: each :func:`spmm` or :func:`spmm_fused` call bumps the
``spmm.calls`` / ``spmm.flops`` / ``spmm.bytes`` counters (no-ops until
:func:`repro.telemetry.enable`); the achieved rate is ``spmm.flops`` over
the enclosing stage's seconds.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

# The compiled kernels scipy itself dispatches to (they release the GIL).
# This module is the library's one user of scipy's private ``_sparsetools``.
from scipy.sparse._sparsetools import (
    csr_has_canonical_format as _CSR_HAS_CANONICAL_FORMAT,
    csr_matvecs as _CSR_MATVECS,
    csr_plus_csr as _CSR_PLUS_CSR,
    csr_row_index as _CSR_ROW_INDEX,
    csr_scale_columns as _CSR_SCALE_COLUMNS,
    csr_scale_rows as _CSR_SCALE_ROWS,
)

from repro import telemetry
from repro.errors import FactorizationError
from repro.utils.parallel import chunk_ranges, default_workers, parallel_map

PRECISIONS = ("single", "double")

# Row-block height of the tall-skinny passes: :func:`gram`'s float64 upcast
# of a float32 operand and :func:`cholesky_qr`'s in-place solve each hold
# one scratch of this many rows × k, whatever ``n`` is.
BLOCK_ROWS = 4_096

# ``cond(B)²`` up to which one Cholesky-QR pass meets the orthogonality
# contract: the pass loses ~c·eps·cond², measured c ≤ 6 in max-norm.
ONE_PASS_COND_SQ = 100.0


def cond_sq_limit(dtype) -> float:
    """The largest ``cond(B)²`` :func:`cholesky_qr` accepts for a block of
    ``dtype``: ``min(1/eps², 1/eps₆₄)``, ``eps`` the block's unit roundoff.

    Mixed-precision CholeskyQR2: the Gram matrix is always accumulated in
    float64 (error ``~eps₆₄·cond²``) and the solve runs in the block's dtype
    (error ``~eps·cond``), so each bounds the limit once.  For float64 that
    is ``1/eps₆₄`` (``cond ≤ 1/√eps₆₄``); for float32 ``1/eps₃₂²``
    (``cond ≤ 1/eps₃₂``).
    """
    eps = float(np.finfo(dtype).eps)
    return min(1.0 / eps**2, 1.0 / float(np.finfo(np.float64).eps))


# dtypes the compiled csr_matvecs kernel accepts; anything else goes through
# the generic scipy fallback path.
_BLAS_DTYPES = (np.float32, np.float64, np.complex64, np.complex128)


def resolve_precision(precision: Union[str, np.dtype, None]) -> np.dtype:
    """Map the ``precision`` knob to a numpy dtype.

    ``"single"`` → float32 (the paper's MKL ``s``-routines), ``"double"`` /
    ``None`` → float64 (numpy's default).
    Raw dtypes pass through when they already name one of the two.
    """
    if precision is None or precision == "double":
        return np.dtype(np.float64)
    if precision == "single":
        return np.dtype(np.float32)
    if not isinstance(precision, str):
        dtype = np.dtype(precision)
        if dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            return dtype
    raise FactorizationError(
        f"precision must be 'single' or 'double', got {precision!r}"
    )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        return default_workers()
    if workers < 1:
        raise FactorizationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def balanced_row_ranges(indptr: np.ndarray, parts: int) -> list:
    """Cut a CSR operator's rows into at most ``parts`` contiguous ranges
    carrying equal shares of its stored entries.

    The cuts are ``searchsorted(indptr, k·nnz/parts)``, so a range ends at
    the first row boundary past its share; ranges that come out empty (one
    row heavier than a share) are dropped.  An operator without entries is
    cut into equal row counts instead.  Each row keeps its own accumulation
    order whatever the cut, so no product result depends on it.
    """
    rows = indptr.size - 1
    nnz = int(indptr[-1]) - int(indptr[0]) if rows > 0 else 0
    if parts <= 1 or nnz == 0:
        return chunk_ranges(rows, parts)
    shares = int(indptr[0]) + nnz * np.arange(1, parts, dtype=np.int64) // parts
    cuts = np.searchsorted(indptr, shares)
    bounds = np.unique(np.concatenate(([0], np.clip(cuts, 0, rows), [rows])))
    return [(int(r0), int(r1)) for r0, r1 in zip(bounds[:-1], bounds[1:])]


def _scale_csr(kernel, matrix: sp.csr_matrix, factors, size: int) -> None:
    """Run a compiled in-place scaling kernel on ``matrix.data``; ``factors``
    must hold ``size`` values (the kernel does not check its reads)."""
    factors = np.ascontiguousarray(factors, dtype=matrix.dtype)
    if factors.shape != (size,):
        raise FactorizationError(
            f"expected {size} scale factors, got shape {factors.shape}"
        )
    rows, cols = matrix.shape
    kernel(rows, cols, matrix.indptr, matrix.indices, matrix.data, factors)


def scale_csr_rows(matrix: sp.csr_matrix, factors: np.ndarray) -> None:
    """``data[k] *= factors[row(k)]`` for every stored entry, in place.

    Each entry gets the one product ``diags(factors) @ matrix`` computes for
    it, without a second matrix or an nnz-sized factor array.
    """
    _scale_csr(_CSR_SCALE_ROWS, matrix, factors, matrix.shape[0])


def scale_csr_columns(matrix: sp.csr_matrix, factors: np.ndarray) -> None:
    """``data[k] *= factors[indices[k]]`` for every stored entry, in place."""
    _scale_csr(_CSR_SCALE_COLUMNS, matrix, factors, matrix.shape[1])


def cast_csr(matrix, dtype):
    """``matrix`` with its ``data`` cast to ``dtype``, sharing ``indices`` and
    ``indptr`` (and a :class:`TiledCSR`'s ``offsets``): once the caller
    drops ``matrix``, the cast ``data`` is the only new array.  Stored order
    and explicit entries stay as they are (scipy's ``astype`` copies all
    three arrays, then sorts each row and drops zeros).  ``matrix`` itself
    comes back when it has ``dtype``.
    """
    if matrix.dtype == dtype:
        return matrix
    if isinstance(matrix, TiledCSR):
        return TiledCSR(
            matrix.data.astype(dtype), matrix.indices, matrix.indptr,
            matrix.offsets, matrix.shape,
        )
    return sp.csr_matrix(
        (matrix.data.astype(dtype), matrix.indices, matrix.indptr),
        shape=matrix.shape, copy=False,
    )


def add_canonical_csr(shape, left, right, indptr, indices, data) -> bool:
    """``left + right`` written straight into ``indptr`` (``shape[0] + 1``
    entries, counted from 0) and the heads of ``indices``/``data`` by
    scipy's compiled ``csr_plus_csr``: no intermediate matrix.

    ``left`` and ``right`` are ``(indptr, indices, data)`` triples of one
    index dtype, and ``indices``/``data`` must hold both operands' entries.
    Only canonical operands (strictly increasing rows) are merged: the
    kernel merges those row by row — dropping sums that are exactly zero —
    so a row block's sum is the whole sum's rows.  For any other pair
    nothing is written and ``False`` comes back.
    """
    rows, cols = shape
    if not all(_CSR_HAS_CANONICAL_FORMAT(rows, ptr, idx) for ptr, idx, _ in (left, right)):
        return False
    _CSR_PLUS_CSR(rows, cols, *left, *right, indptr, indices, data)
    return True


# Bytes of dense-block rows one column tile of a product gathers from: a
# tile's entries read only its band ``dense[c0:c1]``, which stays in a core's
# L2 (2 MiB on the 2-core benchmark box) while every row of a worker's range
# adds that tile's entries.
TILE_BYTES = 512 * 1024

# An operator whose ``TILE_BYTES`` hottest dense rows already receive this
# share of its entries gathers mostly from cache untiled: it keeps one tile.
HOT_SHARE = 0.5

# Stored entries per row block of :func:`tile_csr`'s passes: its transient
# is a few arrays of this length, whatever the operator's nnz.
TILE_BLOCK_NNZ = 1 << 16


class TiledCSR:
    """A CSR operator stored phase by phase: the layout :func:`spmm` and
    :func:`spmm_fused` walk one column tile at a time.

    ``data``/``indices`` hold the entries phase after phase and, within a
    phase, row after row.  Phase ``p``'s row pointer is
    ``offsets[p·n : (p+1)·n + 1]`` — absolute positions, so a phase's last
    row ends where the next phase's first row starts — and :attr:`phases`
    views them as a ``(P, n + 1)`` array.  The phases are an optional leading
    phase of at most one entry per row, then the column tiles in the order a
    product walks them.  ``indptr`` is the row-major row pointer (row ``r``
    holds ``indptr[r+1] − indptr[r]`` entries over all phases): it cuts the
    work and sizes the counters exactly as for :meth:`tocsr`, the CSR
    operator whose rows list the same entries in the same order.
    Built by :class:`ColumnTiles`.
    """

    def __init__(self, data, indices, indptr, offsets, shape):
        self.data, self.indices = data, indices
        self.indptr, self.offsets = indptr, offsets
        self.shape = tuple(shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def phases(self) -> np.ndarray:
        n = self.shape[0]
        return np.lib.stride_tricks.sliding_window_view(self.offsets, n + 1)[::n]

    def tocsr(self) -> sp.csr_matrix:
        """The row-major operator: each row's entries phase by phase."""
        lengths = np.diff(self.offsets).reshape(-1, self.shape[0])
        # Row r's entries of phase p follow its entries of the phases before.
        target = self.indptr[:-1] + (np.cumsum(lengths, axis=0) - lengths)
        order = np.arange(self.nnz) + np.repeat(
            target.ravel() - self.offsets[:-1], lengths.ravel()
        )
        indices = np.empty_like(self.indices)
        data = np.empty_like(self.data)
        indices[order] = self.indices
        data[order] = self.data
        return sp.csr_matrix(
            (data, indices, self.indptr.copy()), shape=self.shape, copy=False
        )


def _hot_share(indptr: np.ndarray, width: int) -> float:
    """Share of the stored entries in the ``width`` longest rows — for the
    symmetric patterns tiled here, the share of a product's gathers that
    land on its ``width`` hottest dense rows."""
    lengths = np.diff(indptr)
    total = int(lengths.sum())
    if total == 0 or width >= lengths.size:
        return 1.0
    hottest = np.partition(lengths, lengths.size - width)[lengths.size - width :]
    return float(hottest.sum()) / total


class ColumnTiles:
    """Lays an operator out for products with a dense block of ``row_bytes``
    per row — as a :class:`TiledCSR`, or in the one-tile layout, the plain
    CSR arrays — one row block at a time.

    A tile is a band of ``TILE_BYTES // row_bytes`` operator columns.  With
    ``lead``, each row may mark one entry that goes first: the leading phase
    when tiled, the head of its row otherwise (the modulated operator's
    diagonal).  Tiling keeps every bit when a walk over the tiles
    reproduces each row's order: no row goes back to an earlier tile — all
    rows ascending by tile (walked first to last) or all descending (walked
    last to first), the leading entries included.  The one-tile layout is
    kept when the dense block fits one tile, when its hottest tile already
    takes :data:`HOT_SHARE` of the entries, or when no walk reproduces every
    row.  :meth:`build` runs the passes.
    """

    def __init__(self, indptr: np.ndarray, shape, row_bytes: int, *, lead: bool = False):
        rows, cols = shape
        self.indptr, self.shape, self.lead = indptr, tuple(shape), lead
        self.width = max(1, TILE_BYTES // row_bytes) if row_bytes > 0 else max(1, cols)
        # A tile phase costs a row pointer of ``rows + 1`` entries: at most as
        # many tiles as entries per row, wider than the budget if need be.
        self.tiles = min(-(-cols // self.width), int(indptr[-1]) // max(1, rows))
        if self.tiles < 2 or _hot_share(indptr, self.width) >= HOT_SHARE:
            self.tiles = 1
        self.width = max(1, -(-cols // self.tiles))
        self.rising = self.falling = True
        self.offsets = None

    @property
    def phases(self) -> int:
        return 1 if self.tiles == 1 else int(self.lead) + self.tiles

    def _grid(self, shift: int, r0: int, r1: int) -> np.ndarray:
        """``offsets[p·n + r + shift]`` of the tile phases and rows
        ``[r0, r1)``, as a ``(r1 - r0, tiles)`` array."""
        n = self.shape[0]
        grid = self.offsets[shift : shift + self.phases * n].reshape(self.phases, n)
        return grid[int(self.lead) :, r0:r1].T

    def _keys(self, r0: int, rows: np.ndarray, columns: np.ndarray, rising: bool):
        """``row · tiles + walk step`` of each entry, ``row`` counted from
        the block's first: non-decreasing along the block when every row
        follows the walk."""
        height = int(rows[-1]) + 1 - r0 if rows.size else 0
        wide = height * self.tiles > np.iinfo(rows.dtype).max
        keys = rows.astype(np.intp) if wide else rows.copy()
        keys -= r0
        keys *= self.tiles
        tiles = columns // self.width
        if not rising:
            np.subtract(self.tiles - 1, tiles, out=tiles)
        keys += tiles
        return keys

    def _count(self, r0, r1, rows, columns, lead) -> None:
        """One block's entries per phase and row, and whether its rows
        follow each walk still open."""
        keys = None
        for rising, walk in ((True, "rising"), (False, "falling")):
            if getattr(self, walk):
                walked = self._keys(r0, rows, columns, rising)
                if walked.size > 1 and np.diff(walked).min() < 0:
                    setattr(self, walk, False)
                elif keys is None:
                    keys, ascending = walked, rising
        if keys is None:  # no walk reproduces this block: one tile
            return
        height = r1 - r0
        counts = np.bincount(keys, minlength=height * self.tiles)
        if lead is not None:
            heads = keys[lead]  # at most one per row, so distinct
            counts[heads] -= 1
            self.offsets[1 + r0 : 1 + r1] = np.bincount(
                heads // self.tiles, minlength=height
            )
        counts = counts.reshape(height, self.tiles)
        self._grid(1, r0, r1)[...] = counts if ascending else counts[:, ::-1]

    def _offsets(self) -> None:
        """Counts to offsets, the tile phases in walk order; one tile when no
        walk reproduces every row."""
        if not (self.rising or self.falling):
            self.tiles, self.offsets = 1, None
            return
        if not self.rising:
            n = self.shape[0]
            tiles = self.offsets[1 : 1 + self.phases * n].reshape(self.phases, n)
            tiles = tiles[int(self.lead) :]
            tiles[...] = tiles[::-1].copy()
        np.cumsum(self.offsets, out=self.offsets)

    def _place(self, r0, r1, rows, columns, values, lead, indices, data) -> None:
        """Write one block's entries to their positions in the layout."""
        lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
        if lead is not None:
            # A row's leading entry opens its row, or its row of the leading phase.
            heads = (self.indptr if self.tiles == 1 else self.offsets)[rows[lead]]
            indices[heads] = columns[lead]
            data[heads] = values[lead]
            columns, values = np.delete(columns, lead), np.delete(values, lead)
        if self.tiles == 1:  # row-major: the others fill the rest of the row
            rest = np.ones(hi - lo, dtype=bool)
            if lead is not None:
                rest[heads - lo] = False
            indices[lo:hi][rest] = columns
            data[lo:hi][rest] = values
            return
        start = self._grid(0, r0, r1)
        counts = self._grid(1, r0, r1) - start
        # The block's (row, tile) groups are runs of its non-leading entries;
        # copied tile by tile, the runs of one tile are its rows [r0, r1).
        runs = np.zeros(counts.size + 1, dtype=indices.dtype)
        np.cumsum(counts.ravel(), out=runs[1:])
        order = np.arange(counts.size, dtype=indices.dtype)
        order = order.reshape(counts.shape).T.ravel()
        moved = np.empty_like(columns), np.empty_like(values)
        _CSR_ROW_INDEX(order.size, order, runs, columns, values, *moved)
        at = 0
        for begin, size in zip(start[0].tolist(), counts.sum(axis=0).tolist()):
            indices[begin : begin + size] = moved[0][at : at + size]
            data[begin : begin + size] = moved[1][at : at + size]
            at += size

    def build(self, blocks, fill, indices: np.ndarray, data: np.ndarray):
        """The operator over the contiguous row ``blocks``, written into
        ``indices``/``data`` (nnz entries each): a :class:`TiledCSR`, or in
        the one-tile layout a ``csr_matrix`` sharing ``indptr``.

        ``fill(r0, r1, rows)`` gives rows ``[r0, r1)``'s entries in stored
        order as ``(columns, values, lead)`` — ``rows`` holds each entry's
        row, ``lead`` the ascending positions of the leading entries, at
        most one per row (``None`` without) — or ``None`` to give up, which
        makes the result ``None``.
        """
        n = self.shape[0]

        def entries():
            for r0, r1 in blocks:
                ptr = self.indptr[r0 : r1 + 1]
                rows = np.repeat(np.arange(r0, r1, dtype=indices.dtype), np.diff(ptr))
                yield r0, r1, rows, fill(r0, r1, rows)

        if self.tiles > 1:
            self.offsets = np.zeros(self.phases * n + 1, dtype=indices.dtype)
            for r0, r1, rows, block in entries():
                if block is None:
                    return None
                self._count(r0, r1, rows, block[0], block[2])
            self._offsets()
        for r0, r1, rows, block in entries():
            if block is None:
                return None
            self._place(r0, r1, rows, *block, indices, data)
        if self.tiles == 1:
            return sp.csr_matrix(
                (data, indices, self.indptr), shape=self.shape, copy=False
            )
        return TiledCSR(data, indices, self.indptr, self.offsets, self.shape)


def tile_csr(matrix: sp.csr_matrix, dtype, row_bytes: int):
    """:func:`cast_csr` of ``matrix`` in the column-tiled layout for a dense
    block of ``row_bytes`` per row: the cast's copy of ``data`` and a copy of
    ``indices`` are written tile by tile (``indptr`` is shared).  Where the
    layout does not pay (:class:`ColumnTiles`) — or no copy is made because
    ``matrix`` has ``dtype`` already — it is ``cast_csr(matrix, dtype)``.
    """
    plan = ColumnTiles(matrix.indptr, matrix.shape, row_bytes)
    if matrix.dtype == dtype or plan.phases == 1:
        return cast_csr(matrix, dtype)
    indptr = matrix.indptr

    def fill(r0, r1, rows):
        lo, hi = int(indptr[r0]), int(indptr[r1])
        return matrix.indices[lo:hi], matrix.data[lo:hi], None

    blocks = balanced_row_ranges(indptr, max(1, -(-matrix.nnz // TILE_BLOCK_NNZ)))
    return plan.build(
        blocks, fill, np.empty_like(matrix.indices),
        np.empty(matrix.nnz, dtype=dtype),
    )


def _phases(matrix) -> np.ndarray:
    """The row pointers a product walks: a :class:`TiledCSR`'s phases, or
    a CSR operator's ``indptr`` as its one phase."""
    return matrix.phases if isinstance(matrix, TiledCSR) else matrix.indptr[None]


def _csr_product(
    phases: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    dense: np.ndarray,
    segment: np.ndarray,
    r0: int,
    r1: int,
) -> None:
    """``segment = A[r0:r1] @ dense`` without copying the rows' entries —
    the one call site of the compiled ``csr_matvecs`` kernel.

    The kernel adds each entry's contribution onto its output row, so the
    segment is zeroed once and each phase is added on in turn: every output
    row accumulates its entries in stored order, phase after phase.
    """
    segment[...] = 0
    for indptr in phases:
        ptr = indptr[r0 : r1 + 1]
        lo, hi = int(ptr[0]), int(ptr[-1])
        if lo == hi:
            continue
        if data.dtype in _BLAS_DTYPES:
            _CSR_MATVECS(
                r1 - r0,
                dense.shape[0],
                dense.shape[1],
                ptr - lo,
                indices[lo:hi],
                data[lo:hi],
                dense.ravel(),
                segment.ravel(),
            )
        else:  # exotic dtype: add a zero-copy row block's product
            block = sp.csr_matrix(
                (data[lo:hi], indices[lo:hi], ptr - lo),
                shape=(r1 - r0, dense.shape[0]),
                copy=False,
            )
            segment += block @ dense


def _csc_cols_kernel(
    matrix: "sp.spmatrix",
    dense: np.ndarray,
    out: np.ndarray,
    c0: int,
    c1: int,
) -> None:
    """``out[:, c0:c1] = A @ dense[:, c0:c1]`` (per-column order preserved)."""
    out[:, c0:c1] = matrix @ np.ascontiguousarray(dense[:, c0:c1])


# Bytes of one scratch sub-block of :func:`spmm_fused` (two per worker): tall
# enough that each column tile's band of the dense block, once in L2, serves
# many rows, and small enough that the epilogue's operands stay in cache.
FUSED_BLOCK_BYTES = 1024 * 1024


def _count_spmm(matrix, dense: np.ndarray, out_nbytes: int) -> None:
    """One product's ``spmm.*`` counters (a :class:`TiledCSR` counts as the
    CSR operator it stores)."""
    flops = 2.0 * int(matrix.nnz) * dense.shape[1]
    moved = (
        matrix.data.nbytes
        + matrix.indices.nbytes
        + matrix.indptr.nbytes
        + dense.nbytes
        + out_nbytes
    )
    telemetry.count("spmm.calls")
    telemetry.count("spmm.flops", flops)
    telemetry.count("spmm.bytes", moved)


def spmm(
    matrix,
    dense: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """Threaded sparse–dense product ``matrix @ dense`` into ``out``.

    Parameters
    ----------
    matrix:
        Sparse CSR/CSC matrix or :class:`TiledCSR` (other sparse formats are
        converted to CSR; dense operands fall through to one BLAS call).
    dense:
        ``(k, c)`` dense block (1-D vectors are treated as one column).
    out:
        Optional preallocated, writable, C-contiguous output of the
        product's shape and dtype that shares no memory with ``dense``
        (a row block is zeroed before ``dense`` is read); allocated when
        omitted.  Reusing ``out`` across calls is what keeps the Chebyshev
        recurrence allocation-free.
    workers:
        Thread count; ``None`` resolves to
        :func:`repro.utils.parallel.default_workers`.  The result is
        **bit-identical for every value** — CSR operators are split into
        one contiguous row block per worker at equal nnz shares (each output
        row's accumulation order is unchanged), CSC operators into dense
        column blocks (each output column is computed by the same compiled
        loop as the serial product).
    """
    workers = _resolve_workers(workers)
    dense = np.asarray(dense)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense.reshape(-1, 1)
    if dense.ndim != 2:
        raise FactorizationError(f"dense block must be 1-D or 2-D, got {dense.ndim}-D")
    if matrix.shape[1] != dense.shape[0]:
        raise FactorizationError(
            f"shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    result_dtype = np.result_type(matrix.dtype, dense.dtype)
    rows, cols = matrix.shape[0], dense.shape[1]
    if out is None:
        out = np.empty((rows, cols), dtype=result_dtype)
    else:
        if squeeze and out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.shape != (rows, cols):
            raise FactorizationError(
                f"out has shape {out.shape}, expected {(rows, cols)}"
            )
        if out.dtype != result_dtype:
            raise FactorizationError(
                f"out has dtype {out.dtype}, expected {result_dtype}"
            )
        if not out.flags.c_contiguous:
            raise FactorizationError("out must be C-contiguous")
        if not out.flags.writeable:
            raise FactorizationError("out is read-only")
        if np.may_share_memory(dense, out):
            raise FactorizationError("out must not share memory with dense")

    tiled = isinstance(matrix, TiledCSR)
    if not tiled and not sp.issparse(matrix):  # dense @ dense: one threaded BLAS call
        np.matmul(np.asarray(matrix), dense, out=out)
        return out[:, 0] if squeeze else out

    csc = not tiled and (
        isinstance(matrix, (sp.csc_matrix, getattr(sp, "csc_array", ())))
        or getattr(matrix, "format", None) == "csc"
    )
    if not (csc or tiled) and getattr(matrix, "format", None) != "csr":
        matrix = matrix.tocsr()
    dense = np.ascontiguousarray(dense, dtype=result_dtype)
    if csc:
        matrix = matrix.astype(result_dtype, copy=False)
    else:  # casts data only, so rows are read in stored order at any dtype
        matrix = cast_csr(matrix, result_dtype)

    if csc:
        # Parallelize over dense columns: each output column is produced by
        # the same compiled per-column loop as the serial csc product.
        kernel = _csc_cols_kernel
        tasks = [
            (matrix, dense, out, c0, c1)
            for c0, c1 in chunk_ranges(cols, workers)
        ]
    else:
        kernel = _csr_product
        phases = _phases(matrix)
        tasks = [
            (phases, matrix.indices, matrix.data, dense, out[r0:r1], r0, r1)
            for r0, r1 in balanced_row_ranges(matrix.indptr, workers)
        ]
    if len(tasks) == 1:
        kernel(*tasks[0])
    elif tasks:  # none for a zero-row or zero-column product
        parallel_map(kernel, tasks, workers=workers)
    _count_spmm(matrix, dense, out.nbytes)
    return out[:, 0] if squeeze else out


def _fused_rows_kernel(
    phases, indices, data, dense, epilogue, product, scratch, r0: int, r1: int
) -> None:
    """One worker's rows of :func:`spmm_fused`, one sub-block at a time."""
    height = product.shape[0]
    for s0 in range(r0, r1, height):
        s1 = min(r1, s0 + height)
        rows = s1 - s0
        _csr_product(phases, indices, data, dense, product[:rows], s0, s1)
        epilogue(s0, s1, product[:rows], scratch[:rows])


def spmm_fused(
    matrix,
    dense: np.ndarray,
    epilogue,
    *,
    workers: Optional[int] = 1,
) -> None:
    """``matrix @ dense`` handed to ``epilogue`` one row sub-block at a time,
    never materialized whole.

    ``matrix`` is CSR or :class:`TiledCSR` of ``dense``'s dtype and
    ``dense`` a C-contiguous ``(k, c)`` block.  The rows are cut into one
    range per worker at equal nnz shares (:func:`balanced_row_ranges`);
    each worker owns two scratch blocks of up to ``FUSED_BLOCK_BYTES``,
    allocated here in the calling thread (a pool thread that allocates
    grows a malloc arena of its own), and, for every sub-block ``[r0, r1)``
    of its range, writes ``matrix[r0:r1] @ dense`` into the first and calls
    ``epilogue(r0, r1, product, scratch)`` — ``scratch`` is the second
    block, of the same shape, for the epilogue's temporaries.  Sub-blocks
    of different workers run concurrently, so the epilogue may write only
    rows ``[r0, r1)`` of its outputs and must not write ``dense``.  Every
    product row is accumulated by the same compiled loop as in
    :func:`spmm`, so it has the same bits at every worker count, and the
    call is counted as one :func:`spmm` with the same flops and bytes.
    """
    workers = _resolve_workers(workers)
    if (
        not (isinstance(matrix, TiledCSR) or getattr(matrix, "format", None) == "csr")
        or dense.ndim != 2
        or matrix.shape[1] != dense.shape[0]
        or matrix.dtype != dense.dtype
    ):
        raise FactorizationError(
            f"spmm_fused operands mismatch: {matrix.shape} {matrix.dtype} @ "
            f"{dense.shape} {dense.dtype}"
        )
    ranges = balanced_row_ranges(matrix.indptr, workers)
    cols = dense.shape[1]
    height = min(
        max((r1 - r0 for r0, r1 in ranges), default=0),
        max(1, FUSED_BLOCK_BYTES // max(1, cols * dense.itemsize)),
    )
    blocks = np.empty((len(ranges), 2, height, cols), dtype=dense.dtype)
    phases = _phases(matrix)
    tasks = [
        (phases, matrix.indices, matrix.data, dense, epilogue, *blocks[i], r0, r1)
        for i, (r0, r1) in enumerate(ranges)
    ]
    if len(tasks) == 1:
        _fused_rows_kernel(*tasks[0])
    elif tasks:
        parallel_map(_fused_rows_kernel, tasks, workers=workers)
    _count_spmm(matrix, dense, matrix.shape[0] * dense.shape[1] * dense.itemsize)


def gram(
    a: np.ndarray,
    b: Optional[np.ndarray] = None,
    *,
    block_rows: int = BLOCK_ROWS,
) -> np.ndarray:
    """``aᵀ b`` (``aᵀ a`` when ``b`` is omitted) with float64 accumulation.

    The tall dimension is reduced in row blocks upcast to float64, so a
    float32 pipeline keeps double-precision sums exactly where MKL's
    ``s``-routines are weakest — the small ``d×d`` / ``sketch×sketch``
    reductions — without ever materializing a float64 copy of the ``n×d``
    operand: the float64 transient is one ``block_rows × k`` scratch per
    distinct operand (one for ``aᵀa``), whatever ``n`` is.
    """
    b = a if b is None else b
    if a.shape[0] != b.shape[0]:
        raise FactorizationError(f"gram shape mismatch: {a.shape} vs {b.shape}")
    if a.dtype == np.float64 and b.dtype == np.float64:
        return a.T @ b
    out = np.zeros((a.shape[1], b.shape[1]), dtype=np.float64)
    # One float64 scratch per distinct operand, refilled block by block.
    height = min(block_rows, a.shape[0])
    upcast_a = np.empty((height, a.shape[1]), dtype=np.float64)
    upcast_b = upcast_a if b is a else np.empty((height, b.shape[1]), np.float64)
    for r0 in range(0, a.shape[0], block_rows):
        rows = min(block_rows, a.shape[0] - r0)
        np.copyto(upcast_a[:rows], a[r0 : r0 + rows])
        if b is not a:
            np.copyto(upcast_b[:rows], b[r0 : r0 + rows])
        out += upcast_a[:rows].T @ upcast_b[:rows]
    return out


def _gram_condition(g: np.ndarray, block: np.ndarray) -> float:
    """``cond(B)²`` from ``G = BᵀB``: ``λ_max / λ_min`` of the small Gram matrix.

    Exact up to ``eigvalsh``'s rounding (one ``k×k`` symmetric eigenvalue
    call, ~1 ms at ``k = 138``).  ``diag(L)`` of the Cholesky factor is
    cheaper but only a *lower* bound — measured up to 40× below the true
    condition on blocks whose small singular directions are spread over all
    columns, and a one-pass decision taken on it accepted blocks that had
    lost ``2e3·eps``.  A ``λ_min`` below :data:`_GRAM_RESOLUTION` ``·eps₆₄·
    λ_max`` is the Gram matrix's own rounding error, so it is measured again
    on ``block`` (:func:`_block_smallest`).  Numerically singular blocks
    report ``inf``.
    """
    eigenvalues = np.linalg.eigvalsh(g)
    smallest, largest = float(eigenvalues[0]), float(eigenvalues[-1])
    if not largest > 0.0:
        return float("inf")
    if smallest < _GRAM_RESOLUTION * _EPS64 * largest:
        smallest = _block_smallest(g, block, largest)
    if not smallest > 0.0:
        return float("inf")
    return largest / smallest


# Multiple of ``eps₆₄·λ_max(G)`` below which the Gram matrix's eigenvalues are
# re-measured on the block: ``fl(BᵀB)`` carries an error of a few
# ``eps₆₄·λ_max``, as large as ``λ_min`` itself at the float64 limit
# ``cond² = 1/eps₆₄``: read off eigvalsh alone, 0.35 % of float64 blocks with
# ``cond`` 2–2.3× beyond the limit's ``1/√eps₆₄`` were accepted.
_GRAM_RESOLUTION = 1e3
_EPS64 = float(np.finfo(np.float64).eps)


def _block_smallest(g: np.ndarray, block: np.ndarray, largest: float) -> float:
    """``σ_min(block)²`` by Rayleigh–Ritz over ``G``'s near-null eigenvectors.

    ``C = block·V`` (``V`` the eigenvectors of ``G`` with eigenvalues below
    ``_GRAM_RESOLUTION·eps₆₄·λ_max``) holds the block's small singular
    directions and none of its large ones, so ``CᵀC`` — accumulated in
    float64, one ``BLOCK_ROWS`` row block at a time — rounds relative to
    ``λ_min``'s neighbours instead of to ``λ_max``.  Its smallest eigenvalue
    is ``σ_min²`` up to ``~eps₆₄·λ_max/_GRAM_RESOLUTION``.
    """
    values, vectors = np.linalg.eigh(g)
    # eigh sorts ascending; keep at least the smallest eigenvector.
    near = vectors[:, : max(1, int(np.sum(values < _GRAM_RESOLUTION * _EPS64 * largest)))]
    small = np.zeros((near.shape[1], near.shape[1]), dtype=np.float64)
    for r0 in range(0, block.shape[0], BLOCK_ROWS):
        rows = block[r0 : r0 + BLOCK_ROWS] @ near
        small += rows.T @ rows
    return float(np.linalg.eigvalsh(small)[0])


def _solve_in_place(work: np.ndarray, lower: np.ndarray) -> None:
    """``work ← work · L⁻ᵀ`` in ``work``'s own memory, one row block at a time.

    Each block is multiplied by the ``k×k`` factor ``L⁻ᵀ`` into one reused
    ``BLOCK_ROWS × k`` scratch and copied back, so no second ``n×k``
    array exists.  A ``trsm`` on the transposed view would avoid forming
    ``L⁻ᵀ``, but numpy exposes none and scipy's BLAS is a second OpenBLAS
    with its own spinning thread pool: alternating between the two pools
    measured 72 ms against 28 ms for this Gram + solve pair on 2 cores.
    The inverse's error (``~eps·cond``) is below the Gram matrix's
    (``~eps·cond²``) and is repaired by the same second pass.
    """
    factor = np.ascontiguousarray(np.linalg.inv(lower).T, dtype=work.dtype)
    scratch = np.empty(
        (min(BLOCK_ROWS, work.shape[0]), work.shape[1]), dtype=work.dtype
    )
    for r0 in range(0, work.shape[0], BLOCK_ROWS):
        rows = work[r0 : r0 + BLOCK_ROWS]
        rows[...] = np.matmul(rows, factor, out=scratch[: rows.shape[0]])


def cholesky_qr(block: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Orthonormal basis of ``range(block)`` via CholeskyQR2 — see the module
    docstring for the orthogonality contract.

    One pass forms ``G = blockᵀ block`` (float64 accumulation), factors
    ``G = L Lᵀ`` and applies ``L⁻ᵀ`` in place.  The pass squares the
    condition number, so ``cond² = λ_max(G)/λ_min(G)`` decides what happens:
    up to :data:`ONE_PASS_COND_SQ` the one-pass result is returned; up to
    :func:`cond_sq_limit` a second pass over the now nearly orthonormal
    block repairs the loss; beyond that — or when the Gram matrix does not
    factor, or the second pass still sees a poorly conditioned block —
    Householder QR takes over and ``linalg.cholesky_qr_fallbacks`` counts
    it.

    ``overwrite=True`` lets the result reuse ``block``'s memory (a
    C-contiguous writable float32/float64 array is orthonormalized in place
    and returned; anything else is copied first).  The default leaves
    ``block`` untouched.  A block with non-finite entries raises
    :class:`~repro.errors.FactorizationError`; a block without columns or
    rows is returned as is.
    """
    block = np.asarray(block)
    if block.ndim != 2:
        raise FactorizationError(f"cholesky_qr expects a 2-D block, got {block.ndim}-D")
    dtype = block.dtype if block.dtype in (np.float32, np.float64) else np.float64
    if overwrite:  # the block itself when it is C-contiguous, aligned, writable
        work = np.require(block, dtype=dtype, requirements="CAW")
    else:
        work = np.array(block, dtype=dtype, order="C")
    if work.size == 0:
        return work
    limit = cond_sq_limit(dtype)
    for _ in range(2):
        with np.errstate(over="ignore", invalid="ignore"):
            g = gram(work)
        if not np.all(np.isfinite(g)):
            if not np.all(np.isfinite(work)):
                raise FactorizationError(
                    f"cholesky_qr: block of shape {work.shape} has non-finite entries"
                )
            break  # finite block whose Gram matrix overflowed
        try:
            cond_sq = _gram_condition(g, work)
            if cond_sq > limit:
                break
            lower = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            break
        _solve_in_place(work, lower)
        if cond_sq <= ONE_PASS_COND_SQ:
            return work
        # The repair pass must see what a sound first pass leaves behind.
        limit = ONE_PASS_COND_SQ
    telemetry.count("linalg.cholesky_qr_fallbacks")
    q, _ = np.linalg.qr(work)
    return q


def orthonormalize(block: np.ndarray, *, strategy: str = "qr") -> np.ndarray:
    """Orthonormalize ``block`` — the sgeqrf/sorgqr pair of Algorithm 3.

    ``strategy="cholesky"`` is :func:`cholesky_qr`, which every
    factorization in the library calls directly (in place) on both
    precisions; ``"qr"`` is Householder QR, kept as its fallback and as the
    oracle that tests and benchmarks compare against.  Neither touches
    ``block``.
    """
    if strategy == "qr":
        q, _ = np.linalg.qr(block)
        return q
    if strategy == "cholesky":
        return cholesky_qr(block)
    raise FactorizationError(
        f"orthonormalize strategy must be 'qr' or 'cholesky', got {strategy!r}"
    )


def gram_rescale(
    matrix: np.ndarray, dimension: Optional[int] = None
) -> np.ndarray:
    """``U_d Σ_d^{1/2}`` of ``matrix`` via ``eigh`` of the ``d×d`` Gram matrix.

    ProNE's re-orthogonalization (:func:`repro.linalg.spectral.
    rescale_embedding`'s default) without the ``n×d`` dense SVD:
    ``MᵀM = V Σ² Vᵀ`` gives the right singular vectors and values, and
    ``U = M V Σ⁻¹`` recovers the left ones — one small ``eigh`` plus one
    GEMM, matching the SVD-based rescale up to column sign.  Directions whose
    eigenvalue is below ``d·eps·λ_max`` (the Gram matrix's own rounding
    level) are numerically null and come back as zero columns, as
    ``U·√0`` does from the SVD.  The output is a fresh in-RAM array of
    ``matrix``'s dtype (the Gram matrix itself is accumulated in float64 via
    :func:`gram`).
    """
    matrix = np.asarray(matrix)
    if matrix.dtype not in (np.float32, np.float64):
        matrix = matrix.astype(np.float64)
    if dimension is None:
        dimension = matrix.shape[1]
    if dimension < 1 or dimension > matrix.shape[1]:
        raise FactorizationError(
            f"dimension {dimension} invalid for matrix with {matrix.shape[1]} columns"
        )
    g = gram(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(g)  # ascending
    values = eigenvalues[::-1][:dimension]
    vectors = eigenvectors[:, ::-1][:, :dimension]
    floor = matrix.shape[1] * np.finfo(np.float64).eps * max(float(values[0]), 0.0)
    live = values > floor
    # Fold V Σ⁻¹ Σ^{1/2} = V Σ^{-1/2} into one small d×d factor, one GEMM.
    scale = np.zeros_like(values)
    scale[live] = values[live] ** -0.25
    factor = vectors * scale[None, :]
    return matrix @ factor.astype(matrix.dtype, copy=False)
