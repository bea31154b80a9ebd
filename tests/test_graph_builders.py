"""Tests for graph builders: symmetrization, dedup, scipy round trips."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphConstructionError
from repro.graph.builders import (
    from_edges,
    from_scipy,
    to_scipy,
)


class TestFromEdges:
    def test_symmetrizes(self):
        g = from_edges([0], [1])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 1

    def test_drops_self_loops(self):
        g = from_edges([0, 1], [0, 2])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_keep_self_loops_optional(self):
        g = from_edges([0], [0], drop_self_loops=False, num_vertices=2)
        assert g.has_edge(0, 0)

    def test_merges_duplicates_unweighted(self):
        g = from_edges([0, 0], [1, 1])
        # Duplicates collapse to a single structural edge.
        assert g.num_edges == 1
        assert g.neighbors(0).size == 1

    def test_merges_duplicates_weighted(self):
        g = from_edges([0, 0], [1, 1], [1.0, 2.5])
        assert g.num_edges == 1
        assert g.adjacency()[0, 1] == pytest.approx(3.5)

    def test_num_vertices_override(self):
        g = from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0], [5], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edges([-1], [0])

    def test_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0, 1], [1])

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0], [1], [1.0, 2.0])

    def test_empty_edge_list(self):
        g = from_edges([], [], num_vertices=5)
        assert g.num_vertices == 5 and g.num_edges == 0

    def test_neighbor_lists_sorted(self):
        g = from_edges([0, 0, 0], [3, 1, 2])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2, 3])

    def test_no_symmetrize_directed_input(self):
        # Caller provides both directions explicitly.
        g = from_edges([0, 1], [1, 0], symmetrize=False)
        assert g.num_edges == 1


class TestScipyRoundTrip:
    def test_round_trip(self, er_graph):
        again = from_scipy(to_scipy(er_graph), symmetrize=False)
        assert again == er_graph

    def test_from_scipy_symmetrize(self):
        a = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        g = from_scipy(a, symmetrize=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_from_scipy_asymmetric_rejected(self):
        a = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        with pytest.raises(GraphConstructionError):
            from_scipy(a, symmetrize=False)

    def test_from_scipy_rectangular_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_scipy(sp.csr_matrix((2, 3)))

    def test_diagonal_removed(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        g = from_scipy(a, symmetrize=False)
        assert not g.has_edge(0, 0)
