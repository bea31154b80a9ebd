"""Residency contract of the dense stages.

Where a buffer lives — anonymous memory or a file mapping — and how many row
blocks a loop cuts it into never change a bit:

* ``spmm(matrix, dense, out=, workers=)`` equals ``matrix @ dense`` for every
  worker count, row-block count and ``out`` residency;
* a memmapped ``out`` gets back, per finished block, exactly the pages that
  block's rows fully cover — and a private, offset, read-only or
  non-contiguous mapping is never ``madvise``-d;
* the offloaded Chebyshev filter equals the in-RAM one at many blocks as it
  does at one, hands no memmap to its caller and leaves its directory empty;
* the randomized-SVD factors do not depend on the row-block count either;
* CSR work is cut at equal nnz shares (``balanced_row_ranges``), and
  ``spmm_fused`` hands its epilogue exactly ``matrix @ dense``, sub-block by
  sub-block, at every worker count, counted as one ``spmm``.

The block count is driven by monkeypatching
``repro.linalg.kernels.SPMM_WORKSPACE_BYTES`` — there is no argument for it.
"""

from __future__ import annotations

import contextlib
import mmap
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import FactorizationError
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.linalg import kernels, spectral
from repro.linalg.kernels import balanced_row_ranges, release_pages, spmm, spmm_fused
from repro.linalg.randomized_svd import randomized_svd
from repro.linalg.spectral import spectral_propagation
from tests.test_out_of_core import _MadviseRecorder

WORKERS = (1, 2, 3)
# Rows of ``out`` per block: one, seven, or the default bound (one block here).
BLOCK_ROWS = (1, 7, None)
RESIDENCIES = (None, "ndarray", "w+", "r+")


@contextlib.contextmanager
def _workspace(nbytes):
    """``SPMM_WORKSPACE_BYTES = nbytes`` for the block (``None``: default)."""
    saved = kernels.SPMM_WORKSPACE_BYTES
    if nbytes is not None:
        kernels.SPMM_WORKSPACE_BYTES = max(1, int(nbytes))
    try:
        yield
    finally:
        kernels.SPMM_WORKSPACE_BYTES = saved


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


def _make_out(residency, shape, dtype, directory):
    if residency is None:
        return None
    if residency == "ndarray":
        return np.full(shape, np.nan, dtype=dtype)
    path = os.path.join(directory, "out.bin")
    if residency == "r+":
        np.full(shape, np.nan, dtype=dtype).tofile(path)
    return np.memmap(path, dtype=dtype, mode=residency, shape=shape)


class TestSpmmEqualsTheSerialProduct:
    @settings(max_examples=30, deadline=None)
    @given(operands=_operands())
    def test_every_worker_block_count_and_residency(self, operands, tmp_path_factory):
        matrix, dense = operands
        reference = matrix @ dense
        row_bytes = max(1, reference[:1].nbytes)
        directory = str(tmp_path_factory.mktemp("spmm"))
        for residency in RESIDENCIES:
            if residency in ("w+", "r+") and reference.size == 0:
                continue  # an empty file cannot be mapped
            for block_rows in BLOCK_ROWS:
                nbytes = None if block_rows is None else block_rows * row_bytes
                for workers in WORKERS:
                    out = _make_out(
                        residency, reference.shape, reference.dtype, directory
                    )
                    with _workspace(nbytes):
                        got = spmm(matrix, dense, out=out, workers=workers)
                    assert got.dtype == reference.dtype
                    np.testing.assert_array_equal(np.asarray(got), reference)
                    if out is not None:  # the product landed in the caller's buffer
                        np.testing.assert_array_equal(np.asarray(out), reference)


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


@pytest.mark.skipif(
    not hasattr(mmap.mmap, "madvise"), reason="platform without madvise"
)
class TestFinishedBlocksAreReleased:
    ROWS, COLS = 1000, 24  # 192-byte rows: row and page boundaries interleave
    BLOCK = 128  # rows per block asked for; 8 blocks of 125 rows come out

    @pytest.fixture
    def operands(self):
        matrix = sp.random(self.ROWS, 300, density=0.03, random_state=7, format="csr")
        dense = np.random.default_rng(3).standard_normal((300, self.COLS))
        return matrix, dense

    def _mapped(self, tmp_path, mode, *, offset=0):
        path = tmp_path / f"out-{mode.replace('+', 'p')}-{offset}.bin"
        np.zeros(offset // 8 + self.ROWS * self.COLS).tofile(path)
        out = np.memmap(
            path, dtype=np.float64, mode=mode, offset=offset,
            shape=(self.ROWS, self.COLS),
        )
        out._mmap = _MadviseRecorder(out._mmap)
        return out

    def _spmm(self, matrix, dense, out, workers):
        with _workspace(self.BLOCK * self.COLS * 8):
            return spmm(matrix, dense, out=out, workers=workers)

    @pytest.mark.parametrize("mode", ["r+", "w+"])
    def test_each_block_releases_the_pages_it_fully_covers(
        self, operands, tmp_path, mode
    ):
        """On pool threads; the serial, in-order case is
        ``tests/test_out_of_core.py::TestReleasePages``."""
        matrix, dense = operands
        out = self._mapped(tmp_path, mode)
        self._spmm(matrix, dense, out, workers=3)
        page, row_bytes = mmap.PAGESIZE, self.COLS * 8
        blocks = [(r0, r0 + 125) for r0 in range(0, self.ROWS, 125)]
        released = sorted(out._mmap.ranges)  # pool threads finish in any order
        assert released == [
            (-(-r0 * row_bytes // page) * page, r1 * row_bytes // page * page)
            for r0, r1 in blocks
        ]
        # Inward alignment: a page shared with a neighbouring block (possibly
        # still being written by another thread) is never dropped.
        for (start, end), (r0, r1) in zip(released, blocks):
            assert r0 * row_bytes <= start < end <= r1 * row_bytes
        np.testing.assert_array_equal(np.asarray(out), matrix @ dense)

    def test_private_and_offset_mappings_are_written_but_never_released(
        self, operands, tmp_path
    ):
        matrix, dense = operands
        for out in (
            self._mapped(tmp_path, "c"),
            self._mapped(tmp_path, "r+", offset=mmap.ALLOCATIONGRANULARITY),
        ):
            self._spmm(matrix, dense, out, workers=2)
            assert out._mmap.ranges == []
            np.testing.assert_array_equal(np.asarray(out), matrix @ dense)

    def test_read_only_and_non_contiguous_mappings_are_rejected_untouched(
        self, operands, tmp_path
    ):
        matrix, dense = operands
        readonly = self._mapped(tmp_path, "r")
        strided = self._mapped(tmp_path, "r+")
        with pytest.raises(FactorizationError, match="read-only"):
            self._spmm(matrix, dense, readonly, workers=2)
        with pytest.raises(FactorizationError, match="contiguous"):
            self._spmm(matrix, dense[:, ::2], strided[:, ::2], workers=2)
        release_pages(readonly, 0, self.ROWS)
        release_pages(strided[:, ::2], 0, self.ROWS)
        assert readonly._mmap.ranges == strided._mmap.ranges == []
        assert not np.asarray(strided).any()


class TestOffloadedFilter:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi_graph(120, 0.08, seed=11)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_equals_the_in_ram_filter_at_five_blocks(
        self, graph, tmp_path, monkeypatch, precision
    ):
        """``tests/test_out_of_core.py::test_offload_bit_identical`` is the
        one-block case (the default bound); here every product and every
        element-wise sweep takes five."""
        dimension, block_rows = 8, 25
        vectors = np.random.default_rng(2).standard_normal(
            (graph.num_vertices, dimension)
        )
        reference = spectral_propagation(
            graph, vectors, order=6, precision=precision
        )
        row_ranges = set()

        def recording(array, r0=0, r1=None):
            if r1 is not None:
                row_ranges.add((r0, r1))
            return release_pages(array, r0, r1)

        # Both the products (kernels) and the element-wise sweeps (spectral).
        monkeypatch.setattr(kernels, "release_pages", recording)
        monkeypatch.setattr(spectral, "release_pages", recording)
        offload_dir = tmp_path / "spill"
        itemsize = 8 if precision == "double" else 4
        with _workspace(block_rows * dimension * itemsize):
            offloaded = spectral_propagation(
                graph, vectors, order=6, precision=precision,
                offload_dir=str(offload_dir),
            )
        assert {(r0, r0 + block_rows) for r0 in range(0, 100, block_rows)} <= row_ranges
        assert {(r0, r0 + 24) for r0 in range(0, 120, 24)} <= row_ranges  # spmm's
        np.testing.assert_array_equal(offloaded, reference)
        # No memmap may escape (downstream code mutates embeddings in place)
        # and the buffers' files are unlinked the moment they are mapped.
        assert type(offloaded) is np.ndarray
        assert not isinstance(offloaded.base, np.memmap)
        assert os.listdir(offload_dir) == []


class TestRandomizedSvdIsBlockCountInvariant:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_factors_bit_identical_across_workspace_sizes(self, symmetric, precision):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((150, 12)))[0]
        values = np.concatenate([np.linspace(10.0, 1.0, 6), np.full(6, 0.01)])
        matrix = sp.csr_matrix(basis @ (values[:, None] * basis.T))
        # Every product of the rank-6 rSVD is 16 (= 6 + 10) columns wide.
        row_bytes = 16 * (8 if precision == "double" else 4)

        def factors(block_rows, workers):
            nbytes = None if block_rows is None else block_rows * row_bytes
            with _workspace(nbytes):
                return randomized_svd(
                    matrix, 6, seed=0, symmetric=symmetric,
                    precision=precision, workers=workers,
                )

        baseline = factors(None, 1)
        for block_rows in (1, 7):
            for workers in (1, 2):
                swept = factors(block_rows, workers)
                assert all(np.array_equal(a, b) for a, b in zip(baseline, swept))
