"""Tests for graph transformations (relabeling, subgraphs, edge edits)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.algorithms import connected_components, triangle_count
from repro.graph.builders import from_edges
from repro.graph.generators import rmat_graph
from repro.graph.transforms import (
    add_edges,
    induced_subgraph,
    permute_vertices,
    remove_edges,
    reorder_by_degree,
)


class TestPermute:
    def test_identity(self, er_graph):
        out = permute_vertices(er_graph, np.arange(er_graph.num_vertices))
        assert out == er_graph

    def test_swap_preserves_structure(self, path4):
        # Reverse the path: still a path with the same degree sequence.
        out = permute_vertices(path4, np.array([3, 2, 1, 0]))
        np.testing.assert_array_equal(
            np.sort(out.degrees()), np.sort(path4.degrees())
        )
        assert out.has_edge(3, 2) and out.has_edge(1, 0)

    def test_invariants_preserved(self, er_graph, rng):
        perm = rng.permutation(er_graph.num_vertices)
        out = permute_vertices(er_graph, perm)
        assert out.num_edges == er_graph.num_edges
        assert triangle_count(out) == triangle_count(er_graph)

    def test_weights_follow(self, weighted_triangle):
        out = permute_vertices(weighted_triangle, np.array([2, 0, 1]))
        # Old edge (1,2,w=2) is now (0,1,w=2).
        assert out.adjacency()[0, 1] == pytest.approx(2.0)

    def test_non_bijection_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            permute_vertices(triangle, np.array([0, 0, 1]))

    def test_wrong_length_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            permute_vertices(triangle, np.array([0, 1]))


class TestReorderByDegree:
    def test_degrees_descending(self):
        g = rmat_graph(8, 6, seed=1)
        out, _ = reorder_by_degree(g)
        degrees = out.degrees()
        assert np.all(degrees[:-1] >= degrees[1:])

    def test_permutation_maps_hub_to_zero(self, star):
        out, perm = reorder_by_degree(star)
        assert perm[0] == 0  # the star center had max degree
        assert out.degree(0) == 5

    def test_ascending_option(self, star):
        out, _ = reorder_by_degree(star, descending=False)
        assert out.degree(out.num_vertices - 1) == 5


class TestInducedSubgraph:
    def test_triangle_subset(self, triangle):
        sub, kept = induced_subgraph(triangle, [0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        np.testing.assert_array_equal(kept, [0, 1])

    def test_duplicate_vertices_deduped(self, triangle):
        sub, kept = induced_subgraph(triangle, [1, 1, 2])
        assert sub.num_vertices == 2

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            induced_subgraph(triangle, [0, 9])

    def test_component_extraction(self):
        g = from_edges([0, 1, 3], [1, 2, 4])
        labels = connected_components(g)
        members = np.flatnonzero(labels == labels[0])
        sub, _ = induced_subgraph(g, members)
        assert sub.num_vertices == 3 and sub.num_edges == 2

    def test_weights_carried(self, weighted_triangle):
        sub, _ = induced_subgraph(weighted_triangle, [1, 2])
        assert sub.adjacency()[0, 1] == pytest.approx(2.0)


class TestEdgeEdits:
    def test_add_edges(self, path4):
        out = add_edges(path4, [0], [3])
        assert out.has_edge(0, 3)
        assert out.num_edges == 4

    def test_add_grows_vertex_set(self, triangle):
        out = add_edges(triangle, [0], [5])
        assert out.num_vertices == 6

    def test_add_duplicate_collapses(self, triangle):
        out = add_edges(triangle, [0], [1])
        assert out.num_edges == 3

    def test_add_weighted(self, weighted_triangle):
        out = add_edges(weighted_triangle, [0], [1], [2.5])
        assert out.adjacency()[0, 1] == pytest.approx(3.5)

    def test_remove_edges(self, triangle):
        out = remove_edges(triangle, [0], [1])
        assert not out.has_edge(0, 1)
        assert out.num_edges == 2

    def test_remove_respects_orientation(self, triangle):
        out = remove_edges(triangle, [1], [0])  # reversed order still works
        assert not out.has_edge(0, 1)

    def test_remove_missing_edge_noop(self, path4):
        out = remove_edges(path4, [0], [3])
        assert out.num_edges == path4.num_edges

    def test_add_then_remove_round_trip(self, er_graph):
        added = add_edges(er_graph, [0, 1], [50, 51])
        removed = remove_edges(added, [0, 1], [50, 51])
        assert removed.num_edges == er_graph.num_edges
