"""Tests for the Ligra+ parallel-byte codec — the fixture benchmarks E11 and
E14 measure (``benchmarks/ligra.py``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ligra import (
    CompressedGraph,
    CompressionError,
    compress_graph,
    compression_ratio,
    decode_neighbors,
    encode_neighbors,
    _varint_append,
    _varint_read,
    _zigzag_decode,
    _zigzag_encode,
)
from repro.graph.builders import from_edges
from repro.graph.generators import rmat_graph
from repro.graph.transforms import permute_vertices, reorder_by_degree


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40])
    def test_round_trip(self, value):
        buf = bytearray()
        _varint_append(buf, value)
        decoded, pos = _varint_read(np.frombuffer(bytes(buf), dtype=np.uint8), 0)
        assert decoded == value
        assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(CompressionError):
            _varint_append(bytearray(), -1)

    def test_single_byte_for_small(self):
        buf = bytearray()
        _varint_append(buf, 100)
        assert len(buf) == 1

    def test_multi_byte_for_large(self):
        buf = bytearray()
        _varint_append(buf, 1 << 21)
        assert len(buf) == 4


class TestZigzag:
    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 1000, -1000, 2**40, -(2**40)])
    def test_round_trip(self, value):
        assert _zigzag_decode(_zigzag_encode(value)) == value

    def test_mapping(self):
        assert _zigzag_encode(0) == 0
        assert _zigzag_encode(-1) == 1
        assert _zigzag_encode(1) == 2


class TestNeighborCodec:
    def test_round_trip_simple(self):
        nbrs = np.array([2, 5, 9, 100])
        payload, blocks = encode_neighbors(4, nbrs, block_size=2)
        decoded = decode_neighbors(
            4, np.frombuffer(payload, dtype=np.uint8), blocks, 4, block_size=2
        )
        np.testing.assert_array_equal(decoded, nbrs)

    def test_first_neighbor_below_source(self):
        nbrs = np.array([0, 1, 7])
        payload, blocks = encode_neighbors(5, nbrs)
        decoded = decode_neighbors(
            5, np.frombuffer(payload, dtype=np.uint8), blocks, 3
        )
        np.testing.assert_array_equal(decoded, nbrs)

    def test_empty_list(self):
        payload, blocks = encode_neighbors(0, np.empty(0, dtype=np.int64))
        assert payload == b"" and blocks.size == 0

    def test_non_increasing_rejected(self):
        with pytest.raises(CompressionError):
            encode_neighbors(0, np.array([3, 3]))

    def test_bad_block_size(self):
        with pytest.raises(CompressionError):
            encode_neighbors(0, np.array([1]), block_size=0)

    def test_block_count(self):
        _, blocks = encode_neighbors(0, np.arange(1, 11), block_size=4)
        assert blocks.size == 3  # ceil(10 / 4)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 2, 3, 8, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, values, source, block_size):
        nbrs = np.unique(np.asarray(values, dtype=np.int64))
        payload, blocks = encode_neighbors(source, nbrs, block_size)
        decoded = decode_neighbors(
            source, np.frombuffer(payload, dtype=np.uint8), blocks, nbrs.size, block_size
        )
        np.testing.assert_array_equal(decoded, nbrs)


class TestCompressedGraph:
    @pytest.fixture(scope="class")
    def graphs(self):
        g = rmat_graph(8, 6, seed=11)
        return g, compress_graph(g, block_size=4)

    def test_decompress_round_trip(self, graphs):
        g, cg = graphs
        assert cg.decompress() == g

    def test_sizes_match(self, graphs):
        g, cg = graphs
        assert cg.num_vertices == g.num_vertices
        assert cg.num_edges == g.num_edges

    def test_degrees_match(self, graphs):
        g, cg = graphs
        np.testing.assert_array_equal(cg.degrees(), g.degrees())

    def test_neighbors_match(self, graphs):
        g, cg = graphs
        for u in range(0, g.num_vertices, 7):
            np.testing.assert_array_equal(cg.neighbors(u), g.neighbors(u))

    def test_ith_neighbor_match(self, graphs, rng):
        g, cg = graphs
        degrees = g.degrees()
        vertices = np.flatnonzero(degrees > 0)
        chosen = rng.choice(vertices, size=50)
        for u in chosen:
            i = int(rng.integers(degrees[u]))
            assert cg.ith_neighbor(int(u), i) == g.ith_neighbor(int(u), i)

    def test_ith_neighbor_out_of_range(self, graphs):
        _, cg = graphs
        with pytest.raises(IndexError):
            cg.ith_neighbor(0, int(cg.degrees()[0]))

    def test_ith_neighbors_vectorized(self, graphs, rng):
        g, cg = graphs
        degrees = g.degrees()
        vertices = np.flatnonzero(degrees > 2)[:20]
        indices = rng.integers(0, degrees[vertices])
        np.testing.assert_array_equal(
            cg.ith_neighbors(vertices, indices), g.ith_neighbors(vertices, indices)
        )

    def test_compression_saves_space_on_crawl(self, graphs):
        g, _ = graphs
        # RMAT graphs have strong locality after sorting: bytes << int64 CSR.
        assert compression_ratio(g, block_size=64) < 0.7

    def test_weighted_graph_keeps_weights(self):
        g = from_edges([0, 1], [1, 2], [2.0, 3.0])
        cg = compress_graph(g)
        np.testing.assert_array_equal(cg.weights, g.weights)
        assert cg.decompress() == g

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        cg = compress_graph(g)
        assert cg.num_edges == 0
        assert cg.decompress() == g

    def test_isolated_vertices(self):
        g = from_edges([0], [1], num_vertices=5)
        cg = compress_graph(g)
        assert cg.neighbors(3).size == 0
        assert cg.decompress() == g

    def test_block_size_one(self):
        g = rmat_graph(6, 4, seed=2)
        cg = compress_graph(g, block_size=1)
        assert cg.decompress() == g

    def test_invalid_block_size(self, triangle):
        with pytest.raises(CompressionError):
            compress_graph(triangle, block_size=-1)

    def test_size_in_bytes_positive(self, graphs):
        _, cg = graphs
        assert cg.size_in_bytes() > 0

    def test_repr(self, graphs):
        _, cg = graphs
        assert "CompressedGraph" in repr(cg)

    def test_block_size_tradeoff_monotone_size(self):
        # Larger blocks -> fewer per-block offsets -> smaller footprint.
        g = rmat_graph(9, 8, seed=4)
        sizes = [compress_graph(g, b).size_in_bytes() for b in (2, 16, 128)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_improves_compression_on_skewed_graph(self):
        """The Ligra+ rationale: hub-first ordering shrinks gap codes."""
        g = rmat_graph(10, 8, seed=3)
        # Scramble first so the baseline isn't already favorable.
        rng = np.random.default_rng(0)
        scrambled = permute_vertices(g, rng.permutation(g.num_vertices))
        before = compress_graph(scrambled, 64).size_in_bytes()
        reordered, _ = reorder_by_degree(scrambled)
        after = compress_graph(reordered, 64).size_in_bytes()
        assert after < before


class TestBulkDecode:
    """The vectorized whole-graph decoder vs the scalar reference path."""

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_matches_scalar_path(self, block_size):
        g = rmat_graph(8, 6, seed=21)
        cg = compress_graph(g, block_size=block_size)
        fast = cg.decompress(vectorized=True)
        slow = cg.decompress(vectorized=False)
        assert fast == slow == g

    def test_multi_byte_varints(self):
        # Neighbor ids needing several varint bytes (gaps > 127).
        nbrs = np.array([5, 200, 20_000, 3_000_000])
        g = from_edges(np.zeros(4, dtype=int), nbrs, num_vertices=3_000_001)
        cg = compress_graph(g, block_size=2)
        assert cg.decompress(vectorized=True) == g

    def test_isolated_vertices(self):
        g = from_edges([0, 5], [3, 7], num_vertices=10)
        cg = compress_graph(g)
        assert cg.decompress(vectorized=True) == g

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=4)
        cg = compress_graph(g)
        assert cg.decompress(vectorized=True) == g

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=120,
        ),
        st.sampled_from([1, 2, 5, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, edges, block_size):
        src = np.array([a for a, _ in edges])
        dst = np.array([b for _, b in edges])
        keep = src != dst
        if not keep.any():
            return
        g = from_edges(src[keep], dst[keep], num_vertices=41)
        cg = compress_graph(g, block_size=block_size)
        assert cg.decompress(vectorized=True) == g
