"""Tests for the CSR graph container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_basic_sizes(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.num_directed_edges == 6

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.volume == 0.0

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0]))

    def test_offsets_must_match_targets(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_targets_in_range(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_weights_parallel(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0]))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([-1.0, 1.0]))

    def test_empty_offsets_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_unsorted_row_rejected(self):
        """``has_edge`` binary-searches a row, so an unsorted one would hide
        true edges (here ``has_edge(0, 1)`` would answer ``False``)."""
        with pytest.raises(GraphConstructionError, match="vertex 0"):
            CSRGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
        with pytest.raises(GraphConstructionError, match="vertex 2"):
            CSRGraph(np.array([0, 1, 1, 3]), np.array([2, 2, 0]))


class TestDegrees:
    def test_triangle_degrees(self, triangle):
        np.testing.assert_array_equal(triangle.degrees(), [2, 2, 2])

    def test_star_degrees(self, star):
        degrees = star.degrees()
        assert degrees[0] == 5
        assert all(degrees[1:] == 1)

    def test_degree_scalar(self, star):
        assert star.degree(0) == 5
        assert star.degree(3) == 1

    def test_weighted_degrees_unweighted(self, triangle):
        np.testing.assert_allclose(triangle.weighted_degrees(), [2.0, 2.0, 2.0])

    def test_weighted_degrees(self, weighted_triangle):
        # Edges: (0,1,w=1), (1,2,w=2), (2,0,w=3).
        np.testing.assert_allclose(weighted_triangle.weighted_degrees(), [4.0, 3.0, 5.0])

    def test_weighted_degrees_with_isolated_vertex(self):
        g = from_edges([0], [1], [2.0], num_vertices=4)
        np.testing.assert_allclose(g.weighted_degrees(), [2.0, 2.0, 0.0, 0.0])

    def test_last_row_keeps_its_last_weight_before_trailing_isolated(self):
        """The clipped-``reduceat`` bug: vertex 2 used to lose the weight-4
        edge because vertices 3 and 4 are isolated."""
        g = from_edges([0, 0, 1], [1, 2, 2], weights=[1, 2, 4], num_vertices=5)
        np.testing.assert_array_equal(g.weighted_degrees(), [3, 5, 6, 0, 0])
        assert g.weighted_degrees().sum() == g.volume == 14

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 11), st.integers(0, 11), st.integers(1, 1000)
            ),
            min_size=1, max_size=60,
        ),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_degrees_are_adjacency_row_sums(self, edges, stride, trailing):
        """Whatever rows are empty: ids are spread by ``stride`` (interior
        isolated vertices) and ``trailing`` isolated vertices follow the last
        edge.  Integer weights make it exact."""
        src = np.array([a for a, _, _ in edges]) * stride
        dst = np.array([b for _, b, _ in edges]) * stride
        weights = np.array([w for _, _, w in edges], dtype=np.float64)
        keep = src != dst
        if not keep.any():
            return
        n = int(max(src[keep].max(), dst[keep].max())) + 1 + trailing
        g = from_edges(src[keep], dst[keep], weights=weights[keep], num_vertices=n)
        row_sums = np.asarray(g.adjacency().sum(axis=1)).ravel()
        degrees = g.weighted_degrees()
        assert degrees.dtype == np.float64
        np.testing.assert_array_equal(degrees, row_sums)
        assert degrees.sum() == g.volume

    def test_volume_unweighted(self, triangle):
        assert triangle.volume == 6.0

    def test_volume_weighted(self, weighted_triangle):
        assert weighted_triangle.volume == pytest.approx(12.0)


class TestAccessors:
    def test_neighbors_sorted(self, er_graph):
        for u in range(er_graph.num_vertices):
            nbrs = er_graph.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_ith_neighbor(self, star):
        assert star.ith_neighbor(0, 0) == 1
        assert star.ith_neighbor(0, 4) == 5

    def test_ith_neighbor_out_of_range(self, star):
        with pytest.raises(IndexError):
            star.ith_neighbor(1, 1)
        with pytest.raises(IndexError):
            star.ith_neighbor(0, -1)

    def test_ith_neighbors_vectorized(self, star):
        out = star.ith_neighbors(np.array([0, 0, 1]), np.array([0, 2, 0]))
        np.testing.assert_array_equal(out, [1, 3, 0])

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert path4.has_edge(1, 0)
        assert not path4.has_edge(0, 3)

    def test_edge_endpoints_consistent(self, triangle):
        src, dst = triangle.edge_endpoints()
        assert src.size == triangle.num_directed_edges
        # Symmetric: every (u, v) has its (v, u).
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_iter_edges(self, weighted_triangle):
        edges = list(weighted_triangle.iter_edges())
        assert len(edges) == 6
        weights = {(u, v): w for u, v, w in edges}
        assert weights[(0, 1)] == weights[(1, 0)] == 1.0
        assert weights[(2, 0)] == 3.0

    def test_neighbor_weights(self, weighted_triangle):
        w = weighted_triangle.neighbor_weights(0)
        assert w is not None and w.size == 2

    def test_neighbor_weights_none_for_unweighted(self, triangle):
        assert triangle.neighbor_weights(0) is None


class TestConversionEquality:
    def test_adjacency_symmetric(self, er_graph):
        a = er_graph.adjacency()
        assert (a != a.T).nnz == 0

    def test_adjacency_entries(self, weighted_triangle):
        a = weighted_triangle.adjacency().toarray()
        assert a[0, 1] == 1.0 and a[1, 2] == 2.0 and a[0, 2] == 3.0
        np.testing.assert_allclose(a, a.T)

    def test_equality(self, triangle):
        other = from_edges([0, 1, 2], [1, 2, 0])
        assert triangle == other

    def test_inequality_weights(self, triangle, weighted_triangle):
        assert triangle != weighted_triangle

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)
