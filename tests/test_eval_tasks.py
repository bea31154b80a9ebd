"""Tests for the node-classification and link-prediction protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval.link_prediction import (
    evaluate_link_prediction,
    link_prediction_auc,
    sample_non_edges,
    train_test_split_edges,
)
from repro.eval.node_classification import (
    evaluate_node_classification,
    sweep_training_ratios,
)
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph


@pytest.fixture(scope="module")
def embedded_sbm():
    """Graph, labels and a good LightNE embedding (module-scoped)."""
    from repro.embedding import LightNEParams, lightne_embedding

    graph, labels = dcsbm_graph(200, 4, avg_degree=12, mixing=0.1, seed=0)
    result = lightne_embedding(
        graph, LightNEParams(dimension=16, window=3, sample_multiplier=3), seed=0
    )
    return graph, labels, result.vectors


class TestNodeClassification:
    def test_basic_run(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        result = evaluate_node_classification(vectors, labels, 0.3, repeats=2, seed=0)
        assert 0.0 <= result.micro_f1 <= 1.0
        assert 0.0 <= result.macro_f1 <= 1.0
        assert result.repeats == 2

    def test_good_embedding_beats_random(self, embedded_sbm, rng):
        _, labels, vectors = embedded_sbm
        good = evaluate_node_classification(vectors, labels, 0.3, repeats=2, seed=0)
        noise = rng.standard_normal(vectors.shape)
        bad = evaluate_node_classification(noise, labels, 0.3, repeats=2, seed=0)
        assert good.micro_f1 > bad.micro_f1 + 0.2

    def test_as_row_percentages(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        result = evaluate_node_classification(vectors, labels, 0.3, repeats=1, seed=0)
        row = result.as_row()
        assert row["micro"] == pytest.approx(100 * result.micro_f1, abs=0.01)

    def test_invalid_ratio(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        for ratio in (0.0, 1.0, -0.5):
            with pytest.raises(EvaluationError):
                evaluate_node_classification(vectors, labels, ratio)

    def test_row_mismatch(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        with pytest.raises(EvaluationError):
            evaluate_node_classification(vectors[:-1], labels, 0.3)

    def test_unlabeled_nodes_excluded(self, rng):
        vectors = rng.standard_normal((20, 4))
        labels = np.zeros((20, 2), dtype=bool)
        labels[:10, 0] = True
        labels[10:16, 1] = True  # 4 nodes fully unlabeled
        result = evaluate_node_classification(vectors, labels, 0.5, repeats=1, seed=0)
        assert result is not None  # simply must not crash

    def test_too_few_labeled(self, rng):
        vectors = rng.standard_normal((10, 4))
        labels = np.zeros((10, 2), dtype=bool)
        labels[0, 0] = True
        with pytest.raises(EvaluationError):
            evaluate_node_classification(vectors, labels, 0.5)

    def test_sweep(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        results = sweep_training_ratios(vectors, labels, [0.2, 0.5], repeats=1, seed=0)
        assert [r.train_ratio for r in results] == [0.2, 0.5]

    def test_deterministic_given_seed(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        a = evaluate_node_classification(vectors, labels, 0.3, repeats=2, seed=7)
        b = evaluate_node_classification(vectors, labels, 0.3, repeats=2, seed=7)
        assert a.micro_f1 == b.micro_f1


class TestSplitEdges:
    def test_sizes(self, er_graph):
        train, pos_u, pos_v = train_test_split_edges(er_graph, 0.1, seed=0)
        assert pos_u.size == round(0.1 * er_graph.num_edges)
        assert train.num_edges == er_graph.num_edges - pos_u.size

    def test_test_edges_removed_from_train(self, er_graph):
        train, pos_u, pos_v = train_test_split_edges(er_graph, 0.1, seed=1)
        for u, v in zip(pos_u[:10], pos_v[:10]):
            assert not train.has_edge(int(u), int(v))

    def test_min_test_floor(self, er_graph):
        _, pos_u, _ = train_test_split_edges(er_graph, 1e-9, seed=2, min_test=3)
        assert pos_u.size == 3

    def test_invalid_fraction(self, er_graph):
        with pytest.raises(EvaluationError):
            train_test_split_edges(er_graph, 0.0)

    def test_tiny_graph_rejected(self):
        g = from_edges([0], [1])
        with pytest.raises(EvaluationError):
            train_test_split_edges(g, 0.5)

    def test_vertex_count_preserved(self, er_graph):
        train, _, _ = train_test_split_edges(er_graph, 0.3, seed=3)
        assert train.num_vertices == er_graph.num_vertices


class TestLinkPrediction:
    def test_metrics_ranges(self, embedded_sbm):
        graph, _, vectors = embedded_sbm
        _, pos_u, pos_v = train_test_split_edges(graph, 0.05, seed=0)
        result = evaluate_link_prediction(
            vectors, pos_u, pos_v, num_negatives=50, seed=0
        )
        assert 1.0 <= result.mean_rank <= 51.0
        assert 0.0 < result.mrr <= 1.0
        assert all(0.0 <= v <= 1.0 for v in result.hits.values())

    def test_good_embedding_beats_random(self, embedded_sbm, rng):
        graph, _, vectors = embedded_sbm
        _, pos_u, pos_v = train_test_split_edges(graph, 0.05, seed=1)
        good = evaluate_link_prediction(vectors, pos_u, pos_v, seed=0)
        noise = rng.standard_normal(vectors.shape)
        bad = evaluate_link_prediction(noise, pos_u, pos_v, seed=0)
        assert good.mrr > bad.mrr

    def test_empty_test_rejected(self, embedded_sbm):
        _, _, vectors = embedded_sbm
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(EvaluationError):
            evaluate_link_prediction(vectors, empty, empty)

    def test_as_row(self, embedded_sbm):
        graph, _, vectors = embedded_sbm
        _, pos_u, pos_v = train_test_split_edges(graph, 0.05, seed=2)
        row = evaluate_link_prediction(vectors, pos_u, pos_v, ks=(10,), seed=0).as_row()
        assert "MR" in row and "MRR" in row and "HITS@10" in row

    def test_invalid_negatives(self, embedded_sbm):
        _, _, vectors = embedded_sbm
        with pytest.raises(EvaluationError):
            evaluate_link_prediction(
                vectors, np.array([0]), np.array([1]), num_negatives=0
            )


class TestNonEdgesAndAUC:
    def test_non_edges_are_non_edges(self, er_graph):
        u, v = sample_non_edges(er_graph, 50, seed=0)
        for a, b in zip(u, v):
            assert a != b
            assert not er_graph.has_edge(int(a), int(b))

    def test_non_edges_count(self, er_graph):
        u, _ = sample_non_edges(er_graph, 25, seed=1)
        assert u.size == 25

    def test_dense_graph_fails_gracefully(self):
        g = from_edges([0, 0, 1], [1, 2, 2])  # complete K3
        with pytest.raises(EvaluationError):
            sample_non_edges(g, 10, seed=0, max_tries=3)

    def test_auc_better_than_random(self, embedded_sbm, rng):
        graph, _, vectors = embedded_sbm
        train, pos_u, pos_v = train_test_split_edges(graph, 0.05, seed=3)
        auc = link_prediction_auc(vectors, train, pos_u, pos_v, seed=0)
        assert auc > 0.7
        noise = rng.standard_normal(vectors.shape)
        assert link_prediction_auc(noise, train, pos_u, pos_v, seed=0) < auc


class TestResultStd:
    def test_std_recorded(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        result = evaluate_node_classification(vectors, labels, 0.3, repeats=3, seed=0)
        assert result.micro_std >= 0.0
        assert result.macro_std >= 0.0

    def test_single_repeat_zero_std(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        result = evaluate_node_classification(vectors, labels, 0.3, repeats=1, seed=0)
        assert result.micro_std == 0.0

    def test_as_row_includes_std(self, embedded_sbm):
        _, labels, vectors = embedded_sbm
        row = evaluate_node_classification(
            vectors, labels, 0.3, repeats=2, seed=0
        ).as_row()
        assert "micro_std" in row
