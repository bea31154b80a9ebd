"""Column-tiled SPMM contract.

A tiled operator (``kernels.TiledCSR``) stores its entries tile by tile, and
:func:`~repro.linalg.kernels.spmm` walks the tiles in order, adding each
onto rows zeroed once.  Whenever the walk reproduces every row's stored
order the product is the one-tile product bit for bit:

* ascending rows (the float32 operators), descending rows (the float64
  propagation operator, tiles walked in reverse) and diagonal-first rows
  (the modulated operator: a leading phase, then either walk);
* at every tile width — one column, seven, the whole block — worker count
  and fused sub-block height, on graphs with empty rows, isolated vertices
  and weights;
* counted as the one-tile product is;
* a row order that no walk reproduces keeps the one-tile layout.

Tile widths are driven by monkeypatching ``kernels.TILE_BYTES`` (and
``kernels.HOT_SHARE`` past 1, so that no tiny graph counts as cache-hot).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.graph.builders import from_edges
from repro.linalg import kernels, spectral
from repro.linalg.kernels import ColumnTiles, TiledCSR, spmm, spmm_fused
from repro.linalg.spectral import _adjacency_plus_identity, propagation_operator

WORKERS = (1, 2, 3)
DTYPES = (np.float32, np.float64)


@contextlib.contextmanager
def _tiles(columns, row_bytes, fused_rows=None):
    """Tiles of ``columns`` operator columns for rows of ``row_bytes``, the
    hot-share rule off, and fused sub-blocks of ``fused_rows`` rows."""
    saved = kernels.TILE_BYTES, kernels.HOT_SHARE, kernels.FUSED_BLOCK_BYTES
    kernels.TILE_BYTES = columns * row_bytes
    kernels.HOT_SHARE = 2.0
    if fused_rows is not None:
        kernels.FUSED_BLOCK_BYTES = fused_rows * row_bytes
    try:
        yield
    finally:
        kernels.TILE_BYTES, kernels.HOT_SHARE, kernels.FUSED_BLOCK_BYTES = saved


@st.composite
def _graphs(draw):
    """Graphs with self-loops, optional weights and isolated vertices, some
    of them dense enough that every row spans many one-column tiles."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(0, n * n))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    sources, targets = draw(ends), draw(ends)
    weights = draw(st.one_of(
        st.none(), st.lists(st.floats(0.25, 8.0), min_size=m, max_size=m)
    ))
    return from_edges(
        sources, targets, weights, num_vertices=n + draw(st.integers(0, 3)),
        drop_self_loops=False,
    )


def _dense(n, width, dtype, seed):
    return np.random.default_rng(seed).standard_normal((n, width)).astype(dtype)


def _fused(matrix, dense, workers):
    got = np.full((matrix.shape[0], dense.shape[1]), np.nan, dtype=dense.dtype)

    def epilogue(r0, r1, product, scratch):
        got[r0:r1] = product

    spmm_fused(matrix, dense, epilogue, workers=workers)
    return got


def _assert_products_equal(tiled, one_tile, dense):
    reference = spmm(one_tile, dense, workers=1)
    for workers in WORKERS:
        np.testing.assert_array_equal(spmm(tiled, dense, workers=workers), reference)
        np.testing.assert_array_equal(_fused(tiled, dense, workers), reference)


def _assert_tile_major(tiled, lead):
    """Each tile phase gathers from one band of columns, the bands disjoint
    and in walk order: ascending, or descending for descending rows."""
    bands = []
    for indptr in tiled.phases[int(lead):]:
        columns = tiled.indices[indptr[0] : indptr[-1]]
        if columns.size:
            bands.append((columns.min(), columns.max()))
    lows = [low for low, _ in bands]
    ordered = sorted(bands) if lows == sorted(lows) else sorted(bands, reverse=True)
    assert bands == ordered
    assert all(a[1] < b[0] for a, b in zip(sorted(bands), sorted(bands)[1:]))


def _plain_tiled(matrix, row_bytes, blocks):
    """``matrix`` (rows monotone or not) laid out by :class:`ColumnTiles`
    over ``blocks`` row blocks, in its own dtype."""

    def fill(r0, r1, rows):
        lo, hi = matrix.indptr[r0], matrix.indptr[r1]
        return matrix.indices[lo:hi], matrix.data[lo:hi], None

    return ColumnTiles(matrix.indptr, matrix.shape, row_bytes).build(
        kernels.balanced_row_ranges(matrix.indptr, blocks), fill,
        np.empty_like(matrix.indices), np.empty_like(matrix.data),
    )


def _phase_count(operator):
    return operator.phases.shape[0] if isinstance(operator, TiledCSR) else 1


class TestModulatedOperator:
    """Diagonal-first rows: ascending after the diagonal in float32,
    descending in float64."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=_graphs(),
        dtype=st.sampled_from(DTYPES),
        columns=st.sampled_from([1, 7, None]),
        fused_rows=st.sampled_from([1, 5, None]),
        width=st.integers(1, 6),
    )
    def test_tiled_products_equal_the_one_tile_product(
        self, graph, dtype, columns, fused_rows, width
    ):
        n = graph.num_vertices
        dense = _dense(n, width, dtype, seed=n)
        row_bytes = width * np.dtype(dtype).itemsize
        da = propagation_operator(graph, dtype)
        one_tile = spectral._modulated_operator(da, 0.2)
        assert isinstance(one_tile, sp.csr_matrix)
        with _tiles(columns or n, row_bytes, fused_rows):
            tiled = spectral._modulated_operator(da, 0.2, row_bytes)
            _assert_products_equal(tiled, one_tile, dense)
        if isinstance(tiled, TiledCSR):
            _assert_tile_major(tiled, lead=True)
            reconstructed = tiled.tocsr()
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(reconstructed, name), getattr(one_tile, name)
                )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_many_tiles_and_a_leading_phase(self, dtype):
        # A complete graph: every row spans every one-column tile.
        n = 12
        u, v = np.triu_indices(n, 1)
        graph = from_edges(u, v, np.linspace(0.5, 3.0, u.size), num_vertices=n)
        dense = _dense(n, 3, dtype, seed=1)
        row_bytes = 3 * np.dtype(dtype).itemsize
        da = propagation_operator(graph, dtype)
        with _tiles(1, row_bytes):
            tiled = spectral._modulated_operator(da, 0.2, row_bytes)
        assert _phase_count(tiled) == 1 + n
        # The leading phase holds each row's diagonal entry, and the tiles
        # run the columns up in float32, down in float64.
        np.testing.assert_array_equal(tiled.indices[:n], np.arange(n))
        walk = [tiled.indices[p[0]] for p in tiled.phases[1:]]
        assert walk == (list(range(n)) if dtype == np.float32 else list(range(n))[::-1])
        _assert_products_equal(tiled, spectral._modulated_operator(da, 0.2), dense)


class TestMonotoneRows:
    """Rows without a leading entry: ``A + I`` ascending, the float64
    propagation operator descending, each in both dtypes."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=_graphs(),
        dtype=st.sampled_from(DTYPES),
        descending=st.booleans(),
        columns=st.sampled_from([1, 7, None]),
        blocks=st.integers(1, 4),
        width=st.integers(1, 6),
    )
    def test_tiled_products_equal_the_one_tile_product(
        self, graph, dtype, descending, columns, blocks, width
    ):
        n = graph.num_vertices
        source = (
            propagation_operator(graph, np.float64) if descending
            else _adjacency_plus_identity(graph)
        )
        one_tile = kernels.cast_csr(source, dtype)
        dense = _dense(n, width, dtype, seed=n + 1)
        row_bytes = width * np.dtype(dtype).itemsize
        with _tiles(columns or n, row_bytes):
            tiled = _plain_tiled(one_tile, row_bytes, blocks)
            _assert_products_equal(tiled, one_tile, dense)
        if isinstance(tiled, TiledCSR):
            _assert_tile_major(tiled, lead=False)
            reconstructed = tiled.tocsr()
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(reconstructed, name), getattr(one_tile, name)
                )

    def test_tile_csr_casts_in_the_tiled_layout(self):
        n = 10
        u, v = np.triu_indices(n, 1)
        matrix = _adjacency_plus_identity(
            from_edges(u, v, np.linspace(0.5, 3.0, u.size), num_vertices=n)
        )
        dense = _dense(n, 2, np.float32, seed=3)
        with _tiles(3, 8):
            tiled = kernels.tile_csr(matrix, np.float32, 8)
            assert kernels.tile_csr(matrix, np.float64, 8) is matrix
        assert _phase_count(tiled) == 4
        _assert_products_equal(tiled, kernels.cast_csr(matrix, np.float32), dense)
        # The float64 residual probe reads the float32 cast as the CSR does.
        np.testing.assert_array_equal(
            spmm(tiled, dense.astype(np.float64)),
            spmm(kernels.cast_csr(matrix, np.float32), dense.astype(np.float64)),
        )


class TestOneTile:
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 0, 1]],              # no walk reproduces this row
            [[0, 1, 2], [2, 1, 0]],   # one row per walk: no walk for both
        ],
    )
    def test_an_order_no_walk_reproduces_keeps_one_tile(self, rows, blocks):
        n = 3
        indices = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows])
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
        indptr = np.concatenate((indptr, np.full(n - len(rows), indptr[-1])))
        data = np.linspace(1.0, 2.0, indices.size)
        matrix = sp.csr_matrix((data, indices, indptr.astype(np.int32)), shape=(n, n))
        with _tiles(1, 8):
            operator = _plain_tiled(matrix, 8, blocks)
        assert isinstance(operator, sp.csr_matrix)
        np.testing.assert_array_equal(operator.indices, matrix.indices)
        dense = _dense(n, 1, np.float64, seed=4)
        np.testing.assert_array_equal(spmm(operator, dense), spmm(matrix, dense))

    def test_a_cache_hot_operator_keeps_one_tile(self):
        # Ten hubs joined to every vertex take over half of the entries, and
        # a tile of ten columns holds their rows of the dense block.
        n, hubs = 40, 10
        u, v = np.triu_indices(n, 1)
        keep = u < hubs
        graph = from_edges(u[keep], v[keep], num_vertices=n)
        da = propagation_operator(graph, np.float32)
        assert kernels._hot_share(da.indptr, hubs) > kernels.HOT_SHARE
        saved = kernels.TILE_BYTES
        kernels.TILE_BYTES = hubs * 4
        try:
            assert isinstance(spectral._modulated_operator(da, 0.2, 4), sp.csr_matrix)
        finally:
            kernels.TILE_BYTES = saved
        with _tiles(hubs, 4):
            assert isinstance(spectral._modulated_operator(da, 0.2, 4), TiledCSR)


class TestCounters:
    def test_a_tiled_product_counts_as_the_csr_product(self):
        n = 16
        u, v = np.triu_indices(n, 1)
        graph = from_edges(u, v, num_vertices=n)
        da = propagation_operator(graph, np.float32)
        dense = _dense(n, 4, np.float32, seed=5)

        def spmm_counters(operator):
            telemetry.enable()
            try:
                spmm(operator, dense, workers=2)
                spmm_fused(operator, dense, lambda *block: None, workers=2)
                counters = telemetry.get_tracer().counters
            finally:
                telemetry.disable()
            return {k: v for k, v in counters.items() if k.startswith("spmm.")}

        with _tiles(2, 16):
            tiled = spectral._modulated_operator(da, 0.2, 16)
        assert isinstance(tiled, TiledCSR)
        assert spmm_counters(tiled) == spmm_counters(tiled.tocsr())
