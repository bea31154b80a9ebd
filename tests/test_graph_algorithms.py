"""Tests for the GBBS-style fundamental graph algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.algorithms import (
    bfs,
    connected_components,
    pagerank,
    _expand_ranges,
)
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph


def triangle_count(graph: CSRGraph) -> int:
    """Exact global triangle count via sorted-neighborhood intersection.

    Uses the standard degree-ordered orientation so each triangle is
    counted exactly once.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    # Rank vertices by (degree, id); orient edges low -> high rank.
    rank = np.lexsort((np.arange(n), degrees))
    position = np.empty(n, dtype=np.int64)
    position[rank] = np.arange(n)

    forward = [
        graph.neighbors(u)[position[graph.neighbors(u)] > position[u]]
        for u in range(n)
    ]
    count = 0
    for u in range(n):
        fu = forward[u]
        for v in fu:
            count += np.intersect1d(fu, forward[v], assume_unique=True).size
    return int(count)


class TestExpandRanges:
    def test_simple(self):
        out = _expand_ranges(np.array([0, 10]), np.array([3, 2]))
        np.testing.assert_array_equal(out, [0, 1, 2, 10, 11])

    def test_zero_lengths_skipped(self):
        out = _expand_ranges(np.array([5, 7, 20]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [5, 6, 20])

    def test_empty(self):
        out = _expand_ranges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_single_range(self):
        np.testing.assert_array_equal(
            _expand_ranges(np.array([4]), np.array([3])), [4, 5, 6]
        )


class TestBFS:
    def test_path_graph_distances(self, path4):
        np.testing.assert_array_equal(bfs(path4, 0), [0, 1, 2, 3])
        np.testing.assert_array_equal(bfs(path4, 2), [2, 1, 0, 1])

    def test_unreachable_marked(self):
        g = from_edges([0, 2], [1, 3])
        dist = bfs(g, 0)
        assert dist[0] == 0 and dist[1] == 1
        assert dist[2] == -1 and dist[3] == -1

    def test_star(self, star):
        dist = bfs(star, 0)
        assert dist[0] == 0 and all(dist[1:] == 1)

    def test_invalid_source(self, triangle):
        with pytest.raises(GraphConstructionError):
            bfs(triangle, 7)

    def test_matches_scipy(self, er_graph):
        from scipy.sparse.csgraph import shortest_path

        reference = shortest_path(er_graph.adjacency(), unweighted=True, indices=0)
        ours = bfs(er_graph, 0).astype(float)
        ours[ours < 0] = np.inf
        np.testing.assert_array_equal(ours, reference)


class TestConnectedComponents:
    def test_single_component(self, triangle):
        labels = connected_components(triangle)
        assert np.unique(labels).size == 1

    def test_two_components(self):
        g = from_edges([0, 2], [1, 3])
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_isolated_vertices(self):
        g = from_edges([0], [1], num_vertices=4)
        labels = connected_components(g)
        assert labels[2] != labels[3]

    def test_matches_scipy(self, er_graph):
        from scipy.sparse.csgraph import connected_components as scipy_cc

        _, reference = scipy_cc(er_graph.adjacency(), directed=False)
        ours = connected_components(er_graph)
        # Same partition (labels may differ): compare co-membership.
        for a in range(0, er_graph.num_vertices, 7):
            for b in range(0, er_graph.num_vertices, 11):
                assert (ours[a] == ours[b]) == (reference[a] == reference[b])

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        np.testing.assert_array_equal(connected_components(g), [0, 1, 2])


class TestPageRank:
    def test_sums_to_one(self, er_graph):
        assert pagerank(er_graph).sum() == pytest.approx(1.0)

    def test_uniform_on_symmetric_graph(self, triangle):
        ranks = pagerank(triangle)
        np.testing.assert_allclose(ranks, 1 / 3, atol=1e-8)

    def test_hub_ranks_highest(self, star):
        ranks = pagerank(star)
        assert ranks[0] == ranks.max()

    def test_dangling_vertices_handled(self):
        g = from_edges([0], [1], num_vertices=3)
        ranks = pagerank(g)
        assert ranks.sum() == pytest.approx(1.0)
        assert np.all(ranks > 0)

    def test_invalid_damping(self, triangle):
        with pytest.raises(GraphConstructionError):
            pagerank(triangle, damping=1.5)


class TestTriangles:
    def test_triangle_graph(self, triangle):
        assert triangle_count(triangle) == 1

    def test_path_has_none(self, path4):
        assert triangle_count(path4) == 0

    def test_k4(self):
        g = from_edges([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
        assert triangle_count(g) == 4

    def test_matches_matrix_trace(self, er_graph):
        a = er_graph.adjacency()
        expected = int(round((a @ a @ a).diagonal().sum() / 6))
        assert triangle_count(er_graph) == expected
