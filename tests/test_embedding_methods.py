"""Per-method embedding tests: shapes, determinism, validation, quality floor.

Quality floors use a small DC-SBM with planted communities — every matrix
method must comfortably beat chance on community recovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    DeepWalkSGDParams,
    LightNEParams,
    NetMFParams,
    NRPParams,
    PBGParams,
    ProNEParams,
    deepwalk_sgd_embedding,
    lightne_embedding,
    netmf_embedding,
    netsmf_embedding,
    nrp_embedding,
    pbg_embedding,
    prone_embedding,
    run_method,
)
from repro.embedding.base import EmbeddingResult, validate_dimension
from repro.embedding.netmf import netmf_matrix_dense
from repro.errors import FactorizationError, SamplingError
from repro.eval.node_classification import evaluate_node_classification


def micro_f1(result, labels, seed=1):
    return evaluate_node_classification(
        result.vectors, labels, 0.5, repeats=1, seed=seed
    ).micro_f1


class TestEmbeddingResult:
    def test_properties(self, rng):
        r = EmbeddingResult(vectors=rng.standard_normal((10, 4)), method="x")
        assert r.num_vertices == 10
        assert r.dimension == 4

    def test_normalized_unit_rows(self, rng):
        r = EmbeddingResult(vectors=rng.standard_normal((10, 4)), method="x")
        norms = np.linalg.norm(r.normalized(), axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_normalized_zero_row_safe(self):
        r = EmbeddingResult(vectors=np.zeros((2, 3)), method="x")
        assert np.isfinite(r.normalized()).all()

    def test_validate_dimension(self):
        validate_dimension(10, 5)
        with pytest.raises(FactorizationError):
            validate_dimension(10, 11)
        with pytest.raises(FactorizationError):
            validate_dimension(10, 0)

class TestNetMF:
    def test_matrix_nonnegative(self, er_graph):
        m = netmf_matrix_dense(er_graph, window=3)
        assert m.min() >= 0.0

    def test_matrix_symmetric(self, er_graph):
        m = netmf_matrix_dense(er_graph, window=3)
        np.testing.assert_allclose(m, m.T, atol=1e-10)

    def test_invalid_window(self, er_graph):
        with pytest.raises(FactorizationError):
            netmf_matrix_dense(er_graph, window=0)

    def test_embedding_shape(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = netmf_embedding(graph, NetMFParams(dimension=16, window=3), seed=0)
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert r.method == "netmf"

    def test_quality(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = netmf_embedding(graph, NetMFParams(dimension=16, window=3), seed=0)
        assert micro_f1(r, labels) > 0.7

    def test_stage_timer(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = netmf_embedding(graph, NetMFParams(dimension=8, window=2), seed=0)
        assert "matrix" in r.timer.stages and "svd" in r.timer.stages


class TestNetSMF:
    def test_shape_and_info(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = netsmf_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=3), seed=0
        )
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert r.info["num_draws"] > 0
        assert r.info["sparsifier_nnz"] > 0

    def test_quality(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = netsmf_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=5), seed=0
        )
        assert micro_f1(r, labels) > 0.7

    def test_deterministic(self, sbm_bundle):
        graph, _ = sbm_bundle
        params = LightNEParams(dimension=8, window=2, sample_multiplier=1)
        a = netsmf_embedding(graph, params, seed=5)
        b = netsmf_embedding(graph, params, seed=5)
        np.testing.assert_allclose(a.vectors, b.vectors)

    def test_is_the_lightne_body_with_both_switches_pinned_off(self, sbm_bundle):
        """Whatever the params say: no downsampling, no propagation."""
        graph, _ = sbm_bundle
        asked = LightNEParams(
            dimension=8, window=2, downsample=True, propagate=True, batch_size=900
        )
        r = netsmf_embedding(graph, asked, seed=5)
        assert r.method == r.info["method"] == "netsmf"
        assert list(r.timer.stages) == ["sparsifier", "svd"]
        assert r.info["downsample"] is False and r.info["propagated"] is False
        assert r.info["params"]["downsample"] is False
        assert r.info["params"]["propagate"] is False
        assert r.info["sparsifier_batches"] > 1  # batch_size reaches the sampler
        off = lightne_embedding(
            graph,
            LightNEParams(
                dimension=8, window=2, downsample=False, propagate=False,
                batch_size=900,
            ),
            seed=5,
        )
        np.testing.assert_array_equal(r.vectors, off.vectors)
        assert off.method == "lightne"


class TestProNE:
    def test_shape(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = prone_embedding(graph, ProNEParams(dimension=16), seed=0)
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert r.method == "prone"

    def test_quality(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = prone_embedding(graph, ProNEParams(dimension=16), seed=0)
        assert micro_f1(r, labels) > 0.7

    def test_no_propagation_flag(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = prone_embedding(
            graph, ProNEParams(dimension=8, propagate=False), seed=0
        )
        assert r.info["propagated"] is False
        assert "propagation" not in r.timer.stages

    def test_invalid_alpha(self, sbm_bundle):
        from repro.embedding.prone import prone_factorization_matrix

        graph, _ = sbm_bundle
        with pytest.raises(FactorizationError):
            prone_factorization_matrix(graph, alpha=0.0)

    def test_factorization_matrix_sparsity(self, sbm_bundle):
        from repro.embedding.prone import prone_factorization_matrix

        graph, _ = sbm_bundle
        m = prone_factorization_matrix(graph)
        # At most one entry per directed edge (paper: exactly m non-zeros).
        assert m.nnz <= graph.num_directed_edges


class TestLightNE:
    def test_full_pipeline(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = lightne_embedding(
            graph, LightNEParams(dimension=16, window=3, sample_multiplier=3), seed=0
        )
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert set(r.timer.stages) == {"sparsifier", "svd", "propagation"}
        assert micro_f1(r, labels) > 0.75

    def test_no_propagation(self, sbm_bundle):
        graph, _ = sbm_bundle
        params = LightNEParams(dimension=8, window=2, propagate=False)
        r = lightne_embedding(graph, params, seed=0)
        assert "propagation" not in r.timer.stages

    def test_named_configs(self):
        small = LightNEParams.small(window=5)
        large = LightNEParams.large(window=5)
        very = LightNEParams.very_large()
        assert small.sample_multiplier == 0.1
        assert large.sample_multiplier == 20.0
        assert very.window == 2 and very.dimension == 32 and not very.propagate

    def test_with_multiplier(self):
        p = LightNEParams().with_multiplier(7.5)
        assert p.sample_multiplier == 7.5

    def test_deterministic(self, sbm_bundle):
        graph, _ = sbm_bundle
        params = LightNEParams(dimension=8, window=2, sample_multiplier=1)
        a = lightne_embedding(graph, params, seed=3)
        b = lightne_embedding(graph, params, seed=3)
        np.testing.assert_allclose(a.vectors, b.vectors)

    def test_worker_count_invariance_end_to_end(self, sbm_bundle):
        # Acceptance criterion: the whole embedding (not just the sparsifier)
        # is bit-identical for every worker count at a fixed seed.
        graph, _ = sbm_bundle
        serial = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=2, workers=1, batch_size=1000),
            seed=0,
        )
        threaded = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=2, workers=4, batch_size=1000),
            seed=0,
        )
        np.testing.assert_array_equal(serial.vectors, threaded.vectors)
        assert serial.info["workers"] == 1
        assert threaded.info["workers"] == 4

    def test_info_counters(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = lightne_embedding(
            graph, LightNEParams(dimension=8, window=2, workers=2), seed=1
        )
        assert r.info["sparsifier_batches"] >= 1
        assert r.info["samples_per_sec"] > 0
        assert r.info["peak_table_bytes"] > 0
        assert r.timer.get_counter("sparsifier", "workers") == 2

    def test_info_reports_telemetry_disabled(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = lightne_embedding(
            graph, LightNEParams(dimension=8, window=2, propagate=False), seed=1
        )
        assert r.info["telemetry_enabled"] is False
        assert "telemetry" not in r.info

    @pytest.mark.parametrize("aggregator", ["hash", "hash-sharded", "sort"])
    def test_info_telemetry_keys_across_aggregators(self, sbm_bundle, aggregator):
        from repro import telemetry

        graph, _ = sbm_bundle
        telemetry.enable()
        telemetry.reset_metrics()
        try:
            r = lightne_embedding(
                graph,
                LightNEParams(dimension=8, window=2, workers=2,
                              aggregator=aggregator, propagate=False),
                seed=1,
            )
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
        assert r.info["telemetry_enabled"] is True
        tele = r.info["telemetry"]
        assert tele["trace_spans"] > 0
        snapshot = tele["metrics"]
        assert snapshot["counters"]["sparsifier.batches"] >= 1
        assert "sparsifier.nnz" in snapshot["gauges"]
        assert snapshot["histograms"]["sparsifier.batch_seconds"]["count"] >= 1
        # The name selects no aggregation pass: no hash table is ever built.
        for kind in ("counters", "gauges", "histograms"):
            assert not [k for k in snapshot[kind] if k.startswith("hashtable.")]

    def test_downsampling_shrinks_sparsifier(self, sbm_bundle):
        graph, _ = sbm_bundle
        on = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=3, sample_multiplier=5,
                          downsample=True, downsample_constant=0.5, propagate=False),
            seed=0,
        )
        off = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=3, sample_multiplier=5,
                          downsample=False, propagate=False),
            seed=0,
        )
        assert on.info["sparsifier_nnz"] < off.info["sparsifier_nnz"]

    @pytest.mark.parametrize(
        "knobs,error,message",
        [
            ({"aggregator": "wat"}, SamplingError, "unknown aggregator 'wat'"),
            ({"precision": "half"}, FactorizationError,
             "precision must be 'single' or 'double', got 'half'"),
            ({"factorizer": "x"}, FactorizationError,
             "factorizer must be 'rsvd' (the paper's Algorithm 3), got 'x'"),
            ({"propagation_order": 0}, FactorizationError,
             "order must be >= 1, got 0"),
            ({"mu": float("nan")}, FactorizationError,
             "mu and theta must be finite, got mu=nan, theta=0.5"),
            ({"theta": float("inf")}, FactorizationError,
             "mu and theta must be finite, got mu=0.2, theta=inf"),
            ({"negative_samples": 0}, SamplingError,
             "negative_samples must be > 0, got 0"),
        ],
        ids=["aggregator", "precision", "factorizer", "propagation_order",
             "mu", "theta", "negative_samples"],
    )
    def test_bad_values_fail_before_sampling(
        self, sbm_bundle, monkeypatch, knobs, error, message
    ):
        # The class and message the consuming stage raised after the
        # sparsifier had run — now raised before anything is sampled.
        def sampled(*args, **kwargs):
            raise AssertionError("the sparsifier stage ran")

        monkeypatch.setattr(
            "repro.sparsifier.builder.sample_sparsifier_edges", sampled
        )
        graph, _ = sbm_bundle
        with pytest.raises(error) as info:
            lightne_embedding(graph, LightNEParams(dimension=8, **knobs), seed=0)
        assert str(info.value) == message

    def test_propagation_knobs_unchecked_without_propagation(self, sbm_bundle):
        # The filter never runs, so its knobs are not read (as before).
        graph, _ = sbm_bundle
        for knobs in ({"propagation_order": 0}, {"mu": float("nan")}):
            params = LightNEParams(dimension=8, window=2, **knobs)
            assert netsmf_embedding(graph, params, seed=0).vectors.shape[1] == 8


class TestNRP:
    def test_shape_and_quality(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = nrp_embedding(graph, NRPParams(dimension=16), seed=0)
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert micro_f1(r, labels) > 0.6

    def test_invalid_alpha(self, sbm_bundle):
        graph, _ = sbm_bundle
        with pytest.raises(FactorizationError):
            nrp_embedding(graph, NRPParams(alpha=1.5), seed=0)

    def test_invalid_order(self, sbm_bundle):
        graph, _ = sbm_bundle
        with pytest.raises(FactorizationError):
            nrp_embedding(graph, NRPParams(order=0), seed=0)


class TestDeepWalkSGD:
    def test_shape(self, sbm_bundle):
        graph, _ = sbm_bundle
        params = DeepWalkSGDParams(
            dimension=16, walk_length=10, walks_per_vertex=3, epochs=1
        )
        r = deepwalk_sgd_embedding(graph, params, seed=0)
        assert r.vectors.shape == (graph.num_vertices, 16)
        assert r.info["pairs"] > 0

    def test_quality_with_enough_training(self, sbm_bundle):
        graph, labels = sbm_bundle
        params = DeepWalkSGDParams(
            dimension=16, walk_length=20, walks_per_vertex=8, epochs=2,
            learning_rate=0.05,
        )
        r = deepwalk_sgd_embedding(graph, params, seed=0)
        assert micro_f1(r, labels) > 0.6

    def test_invalid_window(self, sbm_bundle):
        graph, _ = sbm_bundle
        with pytest.raises(SamplingError):
            deepwalk_sgd_embedding(
                graph, DeepWalkSGDParams(dimension=8, window=0), seed=0
            )


class TestPBG:
    def test_shape(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = pbg_embedding(graph, PBGParams(dimension=16, epochs=2), seed=0)
        assert r.vectors.shape == (graph.num_vertices, 16)

    def test_stable_norms(self, sbm_bundle):
        graph, _ = sbm_bundle
        r = pbg_embedding(graph, PBGParams(dimension=16, epochs=10), seed=0)
        norms = np.linalg.norm(r.vectors, axis=1)
        assert norms.max() < 100.0  # Adagrad keeps the trainer stable

    def test_quality_with_enough_epochs(self, sbm_bundle):
        graph, labels = sbm_bundle
        r = pbg_embedding(graph, PBGParams(dimension=16, epochs=25), seed=0)
        assert micro_f1(r, labels) > 0.5


class TestSGDParameterChecks:
    """A bad SGD setting is a typed error before any training, not a numpy
    traceback mid-run (``range()`` step 0, an empty walk corpus) nor a
    silent run that climbs the loss (negative learning rate)."""

    @pytest.mark.parametrize(
        "method, override, error",
        [
            ("deepwalk", {"walk_length": 0}, SamplingError),
            ("deepwalk", {"batch_size": 0}, SamplingError),
            ("deepwalk", {"learning_rate": 0.0}, FactorizationError),
            ("pbg", {"batch_size": 0}, SamplingError),
            ("pbg", {"learning_rate": -1.0}, FactorizationError),
        ],
        ids=[
            "deepwalk-walk_length", "deepwalk-batch_size",
            "deepwalk-learning_rate", "pbg-batch_size", "pbg-learning_rate",
        ],
    )
    def test_rejected(self, er_graph, method, override, error):
        (name,) = override
        with pytest.raises(error, match=name):
            run_method(method, er_graph, seed=0, dimension=8, **override)
