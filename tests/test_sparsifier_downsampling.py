"""Tests for degree-based edge downsampling, incl. Theorem 3.1 unbiasedness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from repro.sparsifier.downsampling import (
    default_constant,
    downsampling_probabilities,
    graph_downsampling_probabilities,
)
from tests.contracts.downsampled_graphs import (
    downsample_graph_laplacian_sample,
    expected_kept_edges,
)


def laplacian_dense(n, src, dst, weights):
    lap = np.zeros((n, n))
    for u, v, w in zip(src, dst, weights):
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


class TestProbabilities:
    def test_formula(self):
        degrees = np.array([2.0, 4.0])
        p = downsampling_probabilities(
            np.array([0]), np.array([1]), degrees, constant=1.0
        )
        assert p[0] == pytest.approx(1 / 2 + 1 / 4)

    def test_clipped_at_one(self):
        degrees = np.array([1.0, 1.0])
        p = downsampling_probabilities(
            np.array([0]), np.array([1]), degrees, constant=10.0
        )
        assert p[0] == 1.0

    def test_weights_scale_probability(self):
        degrees = np.array([10.0, 10.0])
        p1 = downsampling_probabilities(
            np.array([0]), np.array([1]), degrees, constant=1.0
        )
        p2 = downsampling_probabilities(
            np.array([0]),
            np.array([1]),
            degrees,
            constant=1.0,
            edge_weights=np.array([3.0]),
        )
        assert p2[0] == pytest.approx(3 * p1[0])

    def test_default_constant_is_log_n(self):
        assert default_constant(1000) == pytest.approx(np.log(1000))
        assert default_constant(1) >= 1.0

    def test_zero_degree_rejected(self):
        with pytest.raises(SamplingError):
            downsampling_probabilities(
                np.array([0]), np.array([1]), np.array([0.0, 2.0])
            )

    def test_bad_constant(self):
        with pytest.raises(SamplingError):
            downsampling_probabilities(
                np.array([0]), np.array([1]), np.array([1.0, 1.0]), constant=0.0
            )

    def test_parallel_arrays_required(self):
        with pytest.raises(SamplingError):
            downsampling_probabilities(
                np.array([0, 1]), np.array([1]), np.array([1.0, 1.0])
            )

    def test_high_degree_edges_kept_less(self):
        # Edge between hubs is downsampled harder than between leaves.
        degrees = np.array([100.0, 100.0, 2.0, 2.0])
        p = downsampling_probabilities(
            np.array([0, 2]), np.array([1, 3]), degrees, constant=1.0
        )
        assert p[0] < p[1]


class TestExpectedKeptEdges:
    def test_upper_bound_n_c(self):
        g = erdos_renyi_graph(80, 0.3, seed=0)
        constant = 2.0
        # sum_e p_e <= sum_e C (1/du + 1/dv) = C * n.
        assert expected_kept_edges(g, constant=constant) <= constant * g.num_vertices + 1e-9

    def test_all_probabilities_valid(self, er_graph):
        p = graph_downsampling_probabilities(er_graph)
        assert np.all(p > 0) and np.all(p <= 1)

    def test_reduction_on_dense_graph(self):
        g = erdos_renyi_graph(120, 0.5, seed=1)
        kept = expected_kept_edges(g, constant=1.0)
        assert kept < g.num_edges  # real reduction when m >> n


class TestUnbiasedness:
    def test_laplacian_unbiased(self):
        """Theorem 3.1: E[L_H] == L_G (statistical check over many draws)."""
        g, _ = dcsbm_graph(40, 2, avg_degree=8, seed=0)
        rng = np.random.default_rng(0)
        n = g.num_vertices
        src, dst = g.edge_endpoints()
        mask = src < dst
        exact = laplacian_dense(n, src[mask], dst[mask], np.ones(mask.sum()))

        total = np.zeros((n, n))
        repeats = 400
        for _ in range(repeats):
            s, d, w = downsample_graph_laplacian_sample(g, rng, constant=0.5)
            total += laplacian_dense(n, s, d, w)
        mean = total / repeats
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(mean - exact).max() / scale < 0.35
        # Diagonal (degrees) should be close in aggregate.
        assert np.trace(mean) == pytest.approx(np.trace(exact), rel=0.1)

    def test_kept_count_concentrates(self):
        g = erdos_renyi_graph(100, 0.4, seed=2)
        rng = np.random.default_rng(1)
        counts = [
            downsample_graph_laplacian_sample(g, rng, constant=1.0)[0].size
            for _ in range(50)
        ]
        expected = expected_kept_edges(g, constant=1.0)
        assert np.mean(counts) == pytest.approx(expected, rel=0.15)
