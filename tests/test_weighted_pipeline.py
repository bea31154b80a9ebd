"""End-to-end tests on weighted graphs (the slow walk path + weighted
degrees flow through every stage)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    LightNEParams,
    NetMFParams,
    ProNEParams,
    lightne_embedding,
    netmf_embedding,
    prone_embedding,
)
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph
from repro.sparsifier.downsampling import graph_downsampling_probabilities
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges


@pytest.fixture(scope="module")
def weighted_sbm():
    """A community graph with community-dependent edge weights."""
    graph, labels = dcsbm_graph(120, 3, avg_degree=10, mixing=0.2, seed=5)
    comm = labels.argmax(axis=1)
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    # Within-community edges get weight 3, cross edges weight 1: weights
    # carry the community signal even harder than topology.
    weights = np.where(comm[src] == comm[dst], 3.0, 1.0)
    weighted = from_edges(src, dst, weights, num_vertices=graph.num_vertices)
    return weighted, labels


class TestWeightedSampling:
    def test_downsampling_probs_use_weights(self, weighted_sbm):
        graph, _ = weighted_sbm
        probs = graph_downsampling_probabilities(graph, constant=0.5)
        assert np.all(probs > 0) and np.all(probs <= 1)

    def test_sampling_runs(self, weighted_sbm):
        graph, _ = weighted_sbm
        config = PathSamplingConfig(window=2, num_samples=2000, downsample=True)
        u, v, w, draws = sample_sparsifier_edges(graph, config, seed=0)
        assert u.size > 0 and draws > 0

    def test_heavy_edges_visited_more(self):
        """Weighted walks concentrate samples along heavy edges."""
        # Path 0 -(w=10)- 1 -(w=1)- 2; seeds are edges; walks prefer 0-1.
        g = from_edges([0, 1], [1, 2], [10.0, 1.0])
        config = PathSamplingConfig(window=3, num_samples=4000, downsample=False)
        u, v, w, _ = sample_sparsifier_edges(g, config, seed=1)
        pair_counts = dict(zip(zip(u.tolist(), v.tolist()), w.tolist()))
        assert pair_counts.get((0, 1), 0) > pair_counts.get((1, 2), 0)


class TestWeightedEmbeddings:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda g: lightne_embedding(
                g, LightNEParams(dimension=16, window=2, sample_multiplier=3), 0
            ),
            lambda g: prone_embedding(g, ProNEParams(dimension=16), 0),
            lambda g: netmf_embedding(g, NetMFParams(dimension=16, window=2), 0),
        ],
        ids=["lightne", "prone", "netmf"],
    )
    def test_runs_and_classifies(self, weighted_sbm, runner):
        from repro.eval.node_classification import evaluate_node_classification

        graph, labels = weighted_sbm
        result = runner(graph)
        assert np.isfinite(result.vectors).all()
        score = evaluate_node_classification(
            result.vectors, labels, 0.5, repeats=1, seed=1
        )
        assert score.micro_f1 > 0.6

    def test_weights_change_the_embedding(self, weighted_sbm):
        """Same topology, different weights -> different NetMF matrix."""
        graph, _ = weighted_sbm
        src, dst = graph.edge_endpoints()
        mask = src < dst
        unweighted = from_edges(
            src[mask], dst[mask], num_vertices=graph.num_vertices
        )
        from repro.embedding.netmf import netmf_matrix_dense

        a = netmf_matrix_dense(graph, window=2)
        b = netmf_matrix_dense(unweighted, window=2)
        assert not np.allclose(a, b)


class TestWeightedEstimator:
    """Weighted seeding (counts ∝ A_uv) makes the estimator converge to the
    weighted NetMF matrix — the correctness requirement behind
    _weighted_sample_counts."""

    def test_converges_to_weighted_dense_netmf(self, weighted_sbm):
        from repro.embedding.netmf import netmf_matrix_dense
        from repro.sparsifier.builder import (
            build_sparsifier,
            sparsifier_to_netmf_matrix,
        )
        from repro.sparsifier.path_sampling import PathSamplingConfig

        graph, _ = weighted_sbm
        window = 2
        exact = netmf_matrix_dense(graph, window=window)
        config = PathSamplingConfig(
            window=window,
            num_samples=PathSamplingConfig.samples_for_multiplier(
                graph, window, 60
            ),
            downsample=False,
        )
        result = build_sparsifier(graph, config, seed=0)
        approx = sparsifier_to_netmf_matrix(graph, result).toarray()
        mask = (exact > 0) | (approx > 0)
        correlation = np.corrcoef(exact[mask], approx[mask])[0, 1]
        assert correlation > 0.9

    def test_weighted_counts_expectation(self):
        from repro.sparsifier.path_sampling import _weighted_sample_counts

        rng = np.random.default_rng(0)
        weights = np.array([1.0, 3.0, 6.0])
        totals = np.zeros(3)
        repeats = 300
        for _ in range(repeats):
            totals += _weighted_sample_counts(weights, 100, rng)
        np.testing.assert_allclose(totals / repeats, [10, 30, 60], rtol=0.1)
