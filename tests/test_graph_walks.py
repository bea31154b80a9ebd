"""Tests for the vectorized random-walk engine."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.ligra import CompressedGraph, compress_graph
from repro.errors import SamplingError
from repro.graph.builders import from_edges
from repro.graph.walks import random_walk_matrix_sample, step_random_walk


class TestStepRandomWalk:
    def test_zero_steps_identity(self, er_graph):
        starts = np.arange(er_graph.num_vertices)
        out = step_random_walk(er_graph, starts, np.zeros_like(starts), seed=0)
        np.testing.assert_array_equal(out, starts)

    def test_one_step_lands_on_neighbor(self, er_graph, rng):
        starts = np.flatnonzero(er_graph.degrees() > 0)[:20]
        out = step_random_walk(er_graph, starts, np.ones(starts.size, dtype=int), 1)
        for s, e in zip(starts, out):
            assert er_graph.has_edge(int(s), int(e))

    def test_walk_stays_in_component(self):
        # Two components: {0,1} and {2,3}.
        g = from_edges([0, 2], [1, 3])
        out = step_random_walk(g, np.array([0, 2]), np.array([5, 5]), seed=3)
        assert out[0] in (0, 1)
        assert out[1] in (2, 3)

    def test_isolated_vertex_stays(self):
        g = from_edges([0], [1], num_vertices=3)
        out = step_random_walk(g, np.array([2]), np.array([4]), seed=0)
        assert out[0] == 2

    def test_mixed_step_counts(self, triangle):
        out = step_random_walk(triangle, np.array([0, 0, 0]), np.array([0, 1, 2]), 7)
        assert out[0] == 0
        assert out[1] in (1, 2)

    def test_input_not_mutated(self, triangle):
        starts = np.array([0, 1])
        step_random_walk(triangle, starts, np.array([3, 3]), 0)
        np.testing.assert_array_equal(starts, [0, 1])

    def test_parallel_arrays_required(self, triangle):
        with pytest.raises(SamplingError):
            step_random_walk(triangle, np.array([0]), np.array([1, 2]))

    def test_negative_steps_rejected(self, triangle):
        with pytest.raises(SamplingError):
            step_random_walk(triangle, np.array([0]), np.array([-1]))

    def test_deterministic_with_seed(self, er_graph):
        starts = np.arange(30)
        steps = np.full(30, 5)
        a = step_random_walk(er_graph, starts, steps, seed=9)
        b = step_random_walk(er_graph, starts, steps, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_compressed_graph_walks(self, er_graph, monkeypatch):
        """A walk called directly on the Ligra+ codec (the E11/E14 fixture)
        fetches the i-th edge block by block and lands where the CSR walk
        lands."""
        cg = compress_graph(er_graph, block_size=4)
        lookups = []
        fetch = CompressedGraph.ith_neighbors

        def spy(self, vertices, indices):
            lookups.append(len(vertices))
            return fetch(self, vertices, indices)

        monkeypatch.setattr(CompressedGraph, "ith_neighbors", spy)
        starts = np.arange(er_graph.num_vertices)
        steps = np.full(starts.size, 3)
        out = step_random_walk(cg, starts, steps, seed=4)
        assert len(lookups) == 3 and min(lookups) > 0
        np.testing.assert_array_equal(
            out, step_random_walk(er_graph, starts, steps, seed=4)
        )

    def test_stationary_distribution_proportional_to_degree(self):
        # Long walks on a connected non-bipartite graph approach pi ~ degree.
        g = from_edges([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])  # K4
        starts = np.zeros(4000, dtype=np.int64)
        out = step_random_walk(g, starts, np.full(4000, 15), seed=1)
        freq = np.bincount(out, minlength=4) / 4000
        np.testing.assert_allclose(freq, 0.25 * np.ones(4), atol=0.05)

    def test_weighted_walk_prefers_heavy_edges(self):
        # Vertex 0 has neighbors 1 (w=100) and 2 (w=1).
        g = from_edges([0, 0], [1, 2], [100.0, 1.0])
        starts = np.zeros(500, dtype=np.int64)
        out = step_random_walk(g, starts, np.ones(500, dtype=np.int64), seed=2)
        assert (out == 1).mean() > 0.9


class TestWalkCorpus:
    def test_shape(self, er_graph):
        walks = random_walk_matrix_sample(er_graph, 5, 2, seed=0)
        assert walks.shape == (2 * er_graph.num_vertices, 6)

    def test_consecutive_are_edges(self, er_graph):
        walks = random_walk_matrix_sample(er_graph, 4, 1, seed=1)
        for row in walks[:10]:
            for a, b in zip(row[:-1], row[1:]):
                assert a == b or er_graph.has_edge(int(a), int(b))

    def test_starts_cover_all_vertices(self, triangle):
        walks = random_walk_matrix_sample(triangle, 2, 3, seed=2)
        np.testing.assert_array_equal(
            np.sort(np.unique(walks[:, 0])), [0, 1, 2]
        )

    def test_invalid_args(self, triangle):
        with pytest.raises(SamplingError):
            random_walk_matrix_sample(triangle, -1, 1)
        with pytest.raises(SamplingError):
            random_walk_matrix_sample(triangle, 3, 0)


class TestSortedStrategy:
    """The §4.2 future-work semisort-batching walk step."""

    def test_unknown_strategy_rejected(self, triangle):
        with pytest.raises(SamplingError):
            step_random_walk(triangle, np.array([0]), np.array([1]),
                             strategy="magic")

    def test_lands_on_neighbors(self, er_graph):
        starts = np.flatnonzero(er_graph.degrees() > 0)[:30]
        out = step_random_walk(
            er_graph, starts, np.ones(starts.size, dtype=int), seed=1,
            strategy="sorted",
        )
        for s, e in zip(starts, out):
            assert er_graph.has_edge(int(s), int(e))

    def test_same_distribution_as_direct(self):
        """Both strategies must sample the uniform-neighbor law."""
        g = from_edges([0, 0, 0], [1, 2, 3])  # star: center 0, 3 leaves
        starts = np.zeros(6000, dtype=np.int64)
        steps = np.ones(6000, dtype=np.int64)
        direct = step_random_walk(g, starts, steps, seed=0, strategy="direct")
        sorted_ = step_random_walk(g, starts, steps, seed=1, strategy="sorted")
        f_direct = np.bincount(direct, minlength=4)[1:] / 6000
        f_sorted = np.bincount(sorted_, minlength=4)[1:] / 6000
        np.testing.assert_allclose(f_direct, 1 / 3, atol=0.03)
        np.testing.assert_allclose(f_sorted, 1 / 3, atol=0.03)

    def test_multi_step(self, er_graph):
        starts = np.arange(er_graph.num_vertices)
        out = step_random_walk(
            er_graph, starts, np.full(starts.size, 5), seed=2, strategy="sorted"
        )
        assert out.shape == starts.shape

    def test_compressed_graph(self, er_graph):
        cg = compress_graph(er_graph)
        starts = np.arange(er_graph.num_vertices)
        steps = np.full(starts.size, 3)
        out = step_random_walk(cg, starts, steps, seed=3, strategy="sorted")
        assert out.min() >= 0
        np.testing.assert_array_equal(
            out,
            step_random_walk(er_graph, starts, steps, seed=3, strategy="sorted"),
        )
