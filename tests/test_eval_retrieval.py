"""Tests for the neighbor-retrieval evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval.retrieval import neighbor_retrieval, retrieval_sweep
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph


@pytest.fixture(scope="module")
def embedded():
    from repro.embedding import LightNEParams, lightne_embedding

    graph, _ = dcsbm_graph(150, 3, avg_degree=10, mixing=0.1, seed=4)
    result = lightne_embedding(
        graph, LightNEParams(dimension=16, window=3, sample_multiplier=3), seed=0
    )
    return graph, result.vectors


class TestNeighborRetrieval:
    def test_result_ranges(self, embedded):
        graph, vectors = embedded
        result = neighbor_retrieval(vectors, graph, k=10, seed=0)
        assert 0.0 <= result.recall <= 1.0
        assert 0.0 <= result.precision <= 1.0
        assert result.num_queries > 0

    def test_good_embedding_beats_random(self, embedded, rng):
        graph, vectors = embedded
        good = neighbor_retrieval(vectors, graph, k=10, seed=0)
        noise = rng.standard_normal(vectors.shape)
        bad = neighbor_retrieval(noise, graph, k=10, seed=0)
        assert good.recall > bad.recall + 0.1

    def test_perfect_embedding_perfect_recall(self):
        """An embedding that encodes adjacency exactly retrieves exactly."""
        # Star graph; embed center at origin-ish and leaves near it, with a
        # planted geometry: identical vectors for neighbors.
        g = from_edges([0, 0], [1, 2], num_vertices=4)
        vectors = np.array([
            [1.0, 0.0],
            [0.9, 0.1],
            [0.9, -0.1],
            [-1.0, 0.0],
        ])
        result = neighbor_retrieval(vectors, g, k=2, num_queries=3, seed=0)
        assert result.recall == 1.0

    def test_validation(self, embedded):
        graph, vectors = embedded
        with pytest.raises(EvaluationError):
            neighbor_retrieval(vectors[:-1], graph, k=5)
        with pytest.raises(EvaluationError):
            neighbor_retrieval(vectors, graph, k=0)
        with pytest.raises(EvaluationError):
            neighbor_retrieval(vectors, graph, k=graph.num_vertices)

    def test_empty_graph_rejected(self, rng):
        g = from_edges([], [], num_vertices=5)
        with pytest.raises(EvaluationError):
            neighbor_retrieval(rng.standard_normal((5, 2)), g, k=2)

    def test_as_row(self, embedded):
        graph, vectors = embedded
        row = neighbor_retrieval(vectors, graph, k=3, seed=0).as_row()
        assert {"k", "recall", "precision", "queries"} <= set(row)


class TestSweep:
    def test_monotone_recall_in_k(self, embedded):
        """Hit count can only grow with k, so per-query recall (normalized
        by min(k, degree)) at large k >= at k=1 on average-ish: we check the
        weaker property that recall@50 >= recall@1 - 0.1."""
        graph, vectors = embedded
        results = retrieval_sweep(vectors, graph, ks=(1, 50), seed=0)
        assert results[1].recall >= results[0].recall - 0.1

    def test_sweep_shapes(self, embedded):
        graph, vectors = embedded
        results = retrieval_sweep(vectors, graph, ks=(1, 5, 10), seed=0)
        assert [r.k for r in results] == [1, 5, 10]
