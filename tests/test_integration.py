"""Integration tests: end-to-end pipelines crossing module boundaries.

These encode the paper's qualitative claims at miniature scale:
LightNE ≥ its ingredients, downsampling preserves quality while shrinking
the sparsifier, and the Pareto story of Figure 2 (more samples → better quality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    LightNEParams,
    ProNEParams,
    lightne_embedding,
    netmf_embedding,
    netsmf_embedding,
    prone_embedding,
)
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    train_test_split_edges,
)
from repro.graph.generators import dcsbm_graph
from repro.streaming import DynamicEmbedder, EdgeBatch


@pytest.fixture(scope="module")
def bundle():
    return dcsbm_graph(250, 5, avg_degree=14, mixing=0.12, seed=42)


def classify(vectors, labels, seed=0):
    return evaluate_node_classification(
        vectors, labels, 0.5, repeats=2, seed=seed
    ).micro_f1


class TestQualityOrdering:
    def test_lightne_close_to_exact_netmf(self, bundle):
        graph, labels = bundle
        exact = netmf_embedding(graph, 16, window=3, seed=0)
        light = lightne_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=10), seed=0
        )
        assert classify(light.vectors, labels) >= classify(exact.vectors, labels) - 0.1

    def test_lightne_at_least_matches_netsmf(self, bundle):
        """Spectral propagation should not hurt (usually helps)."""
        graph, labels = bundle
        shared = dict(dimension=16, window=3)
        smf = netsmf_embedding(
            graph, LightNEParams(sample_multiplier=5, **shared), seed=0
        )
        light = lightne_embedding(
            graph, LightNEParams(sample_multiplier=5, **shared), seed=0
        )
        assert classify(light.vectors, labels) >= classify(smf.vectors, labels) - 0.05

    def test_more_samples_no_worse(self, bundle):
        """Figure 2's trade-off: the large config beats the small config."""
        graph, labels = bundle
        small = lightne_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=0.1), seed=0
        )
        large = lightne_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=10), seed=0
        )
        assert classify(large.vectors, labels) >= classify(small.vectors, labels) - 0.02

    def test_lightne_small_competitive_with_prone(self, bundle):
        """§5.2.3: LightNE-Small runs as fast as ProNE+ and scores at least
        comparably."""
        graph, labels = bundle
        light = lightne_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=0.5), seed=0
        )
        prone = prone_embedding(graph, ProNEParams(dimension=16), seed=0)
        assert classify(light.vectors, labels) >= classify(prone.vectors, labels) - 0.08


class TestSubstrateEquivalence:
    """Downsampling (§3.2) cuts sparsifier entries, not embedding quality."""

    def test_downsampling_quality_preserved(self, bundle):
        """§3.2: downsampling has 'negligible effects on quality' while
        cutting sparsifier entries."""
        graph, labels = bundle
        base = LightNEParams(dimension=16, window=3, sample_multiplier=8)
        with_ds = lightne_embedding(graph, base, seed=0)
        without_ds = lightne_embedding(
            graph,
            LightNEParams(dimension=16, window=3, sample_multiplier=8, downsample=False),
            seed=0,
        )
        assert with_ds.info["sparsifier_nnz"] <= without_ds.info["sparsifier_nnz"]
        f1_with = classify(with_ds.vectors, labels)
        f1_without = classify(without_ds.vectors, labels)
        assert f1_with >= f1_without - 0.07


class TestLinkPredictionPipeline:
    def test_full_pbg_protocol(self, bundle):
        graph, _ = bundle
        train, pos_u, pos_v = train_test_split_edges(graph, 0.05, seed=0)
        result = lightne_embedding(
            train, LightNEParams(dimension=16, window=5, sample_multiplier=5), seed=0
        )
        metrics = evaluate_link_prediction(
            result.vectors, pos_u, pos_v, num_negatives=100, seed=0
        )
        # Held-out edges should rank far above random corruption (random
        # guessing gives MR ~ 50 of 101 and HITS@50 ~ 0.5); same-community
        # corrupted tails are genuinely plausible, so HITS@10 stays moderate.
        assert metrics.mean_rank < 35
        assert metrics.hits[50] > 0.6


class TestRefresh:
    def test_refresh_aligns_frames(self, bundle):
        graph, _ = bundle
        params = LightNEParams(dimension=16, window=3, sample_multiplier=5)
        embedder = DynamicEmbedder(graph, params, seed=0)
        first = embedder.result
        refreshed = embedder.refresh()
        # After Procrustes alignment the two frames should correlate strongly
        # row-wise even though the runs used different random samples.
        cosines = np.einsum("ij,ij->i", first.normalized(), refreshed.normalized())
        assert np.median(cosines) > 0.5
        assert refreshed.info.get("aligned_to_previous") is True

    def test_refresh_with_grown_graph(self, bundle):
        graph, _ = bundle
        params = LightNEParams(dimension=16, window=3, sample_multiplier=3)
        embedder = DynamicEmbedder(graph, params, seed=0)
        # Add a vertex attached to vertex 0.
        assert embedder.apply(
            EdgeBatch(np.array([0]), np.array([graph.num_vertices]))
        )
        refreshed = embedder.result
        assert refreshed.num_vertices == graph.num_vertices + 1
