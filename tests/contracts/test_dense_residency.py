"""Residency contract of the dense stages.

How many row blocks a product is cut into never changes a bit:

* ``spmm(matrix, dense, out=, workers=)`` equals ``matrix @ dense`` for every
  worker count (one row block per worker), into a fresh or a caller-owned
  ``out``;
* CSR work is cut at equal nnz shares (``balanced_row_ranges``), and
  ``spmm_fused`` hands its epilogue exactly ``matrix @ dense``, sub-block by
  sub-block, at every worker count and sub-block height, counted as one
  ``spmm``.

The fused sub-block height is driven by monkeypatching
``repro.linalg.kernels.FUSED_BLOCK_BYTES`` — there is no argument for it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import FactorizationError
from repro.graph.generators import rmat_graph
from repro.linalg import kernels
from repro.linalg.kernels import balanced_row_ranges, spmm, spmm_fused

WORKERS = (1, 2, 3)
# Rows per fused sub-block: one, seven, or the default bound.
BLOCK_ROWS = (1, 7, None)
RESIDENCIES = (None, "ndarray")


@contextlib.contextmanager
def _workspace(nbytes):
    """``FUSED_BLOCK_BYTES = nbytes`` for the block (``None``: default)."""
    saved = kernels.FUSED_BLOCK_BYTES
    if nbytes is not None:
        kernels.FUSED_BLOCK_BYTES = max(1, int(nbytes))
    try:
        yield
    finally:
        kernels.FUSED_BLOCK_BYTES = saved


@st.composite
def _operands(draw):
    """A CSR matrix and a right-hand side of its dtype."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(0, 30))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = draw(st.sampled_from(["uniform", "empty-rows", "heavy-row"]))
    width = draw(st.one_of(st.none(), st.integers(1, 5)))  # None: 1-D rhs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = np.full(rows, 0.3)
    if shape == "empty-rows":
        density[rng.random(rows) < 0.5] = 0.0
    elif shape == "heavy-row" and rows:
        density[:] = 0.02
        density[rng.integers(rows)] = 1.0  # one row holds most entries
    mask = rng.random((rows, cols)) < density[:, None]
    matrix = sp.csr_matrix(
        np.where(mask, rng.standard_normal((rows, cols)), 0.0).astype(dtype)
    )
    rhs_shape = (cols,) if width is None else (cols, width)
    return matrix, rng.standard_normal(rhs_shape).astype(dtype)


def _make_out(residency, shape, dtype):
    if residency is None:
        return None
    return np.full(shape, np.nan, dtype=dtype)


class TestSpmmEqualsTheSerialProduct:
    @settings(max_examples=30, deadline=None)
    @given(operands=_operands())
    def test_every_worker_block_count_and_residency(self, operands):
        matrix, dense = operands
        reference = matrix @ dense
        for residency in RESIDENCIES:
            for workers in WORKERS:
                out = _make_out(residency, reference.shape, reference.dtype)
                got = spmm(matrix, dense, out=out, workers=workers)
                assert got.dtype == reference.dtype
                np.testing.assert_array_equal(got, reference)
                if out is not None:  # the product landed in the caller's buffer
                    np.testing.assert_array_equal(out, reference)


class TestBalancedRowRanges:
    @settings(max_examples=50, deadline=None)
    @given(operands=_operands(), parts=st.integers(1, 6))
    def test_contiguous_cover_at_equal_nnz_shares(self, operands, parts):
        matrix, _ = operands
        indptr, rows = matrix.indptr, matrix.shape[0]
        ranges = balanced_row_ranges(indptr, parts)
        assert len(ranges) <= parts
        if rows == 0:
            assert ranges == []
            return
        bounds = [r0 for r0, _ in ranges] + [ranges[-1][1]]
        assert bounds[0] == 0 and bounds[-1] == rows
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        if matrix.nnz:
            share = -(-matrix.nnz // parts)
            heaviest = int(np.diff(indptr).max())
            for r0, r1 in ranges:
                assert indptr[r1] - indptr[r0] <= share + heaviest

    def test_skewed_rows_split_by_entries(self):
        """R-MAT puts most edges on low ids: equal row counts are unequal
        work, equal nnz shares are not."""
        indptr = np.asarray(rmat_graph(12, 6, seed=1).offsets)
        nnz, rows = int(indptr[-1]), indptr.size - 1
        assert indptr[rows // 2] > 0.6 * nnz
        (a0, a1), (b0, b1) = balanced_row_ranges(indptr, 2)
        heaviest = int(np.diff(indptr).max())
        assert abs((indptr[a1] - indptr[a0]) - (indptr[b1] - indptr[b0])) <= 2 * heaviest


class TestFusedProduct:
    @settings(max_examples=30, deadline=None)
    @given(operands=_operands())
    def test_hands_out_the_serial_product_block_by_block(self, operands):
        matrix, dense = operands
        if dense.ndim == 1:
            dense = dense[:, None]
        reference = matrix @ dense
        row_bytes = max(1, reference[:1].nbytes)
        for block_rows in BLOCK_ROWS:
            nbytes = None if block_rows is None else block_rows * row_bytes
            for workers in WORKERS:
                got = np.full(reference.shape, np.nan, dtype=reference.dtype)
                blocks = []

                def epilogue(r0, r1, product, scratch):
                    assert product.shape == scratch.shape == (r1 - r0, got.shape[1])
                    got[r0:r1] = product
                    blocks.append((r0, r1))

                with _workspace(nbytes):
                    spmm_fused(matrix, dense, epilogue, workers=workers)
                np.testing.assert_array_equal(got, reference)
                blocks.sort()
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                if block_rows is not None:
                    assert all(r1 - r0 <= block_rows for r0, r1 in blocks)

    def test_counted_as_one_spmm(self):
        matrix = sp.random(60, 40, density=0.2, random_state=1, format="csr")
        dense = np.random.default_rng(0).standard_normal((40, 6))

        def spmm_counters(run):
            telemetry.enable()
            try:
                run()
                counters = telemetry.get_tracer().counters
            finally:
                telemetry.disable()
            return {k: v for k, v in counters.items() if k.startswith("spmm.")}

        fused = spmm_counters(
            lambda: spmm_fused(matrix, dense, lambda *block: None, workers=2)
        )
        plain = spmm_counters(lambda: spmm(matrix, dense, workers=2))
        assert fused == plain and fused["spmm.calls"] == 1

    def test_rejects_a_non_csr_or_mismatched_operand(self):
        matrix = sp.random(5, 4, density=0.5, random_state=0, format="csr")
        for operator, dense in (
            (matrix.tocsc(), np.ones((4, 2))),
            (matrix, np.ones((4, 2), dtype=np.float32)),
            (matrix, np.ones(4)),
        ):
            with pytest.raises(FactorizationError):
                spmm_fused(operator, dense, lambda *block: None)
