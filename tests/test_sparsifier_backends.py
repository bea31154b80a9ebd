"""Tests for the sparsifier stage's sampler table.

Covers the sampler contract from three sides: the default ``"path"``
sampler through ``build_sparsifier`` must be bit-identical to
``build_netmf_sparsifier`` at every worker count on both execution
substrates; the ``"ppr"`` sampler must be deterministic under the same
sweep and estimate the NetMF matrix at least as well as PathSampling at
equal sample budgets; and the widened workloads (weighted / bipartite)
must run the full builders → sparsifier → eval path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.embedding.lightne import (
    LightNEParams,
    lightne_embedding,
    netsmf_embedding,
)
from repro.embedding.netmf import netmf_matrix_dense
from repro.embedding.prone import ProNEParams
from repro.embedding.registry import make_params
from repro.errors import (
    GraphConstructionError,
    MethodParameterError,
    SamplingError,
    UnsupportedGraphError,
)
from repro.graph.builders import from_bipartite_edges, from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from repro.sparsifier.builder import (
    SPARSIFIER_SAMPLERS,
    build_netmf_sparsifier,
    build_sparsifier,
    sparsifier_backend_names,
    sparsifier_to_netmf_matrix,
    validate_sparsifier_graph,
)
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.sparsifier.ppr import sample_ppr_counts, walk_operator


def _identical(a, b) -> bool:
    """Bit-identity of two SparsifierResults."""
    return a.num_draws == b.num_draws and (a.counts != b.counts).nnz == 0


class TestRegistry:
    def test_backend_names(self):
        assert sparsifier_backend_names() == ["path", "ppr"]
        assert sparsifier_backend_names() == list(SPARSIFIER_SAMPLERS)

    def test_default_is_path(self):
        assert sparsifier_backend_names()[0] == "path"

    def test_unknown_backend_raises(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=100)
        with pytest.raises(SamplingError, match="wat.*path, ppr"):
            build_sparsifier(er_graph, config, seed=0, sparsifier="wat")

    @pytest.mark.parametrize("name", list(SPARSIFIER_SAMPLERS))
    def test_every_sampler_honours_the_call_contract(self, er_graph, name):
        """One signature, a pre-reduced canonical stream (distinct pairs of
        the upper triangle in key order), and ``draws`` equal to the budget
        ``M`` the estimator divides by (realized, for ``path``)."""
        config = PathSamplingConfig(window=2, num_samples=4000)
        stats = {}
        rows, cols, weights, draws = SPARSIFIER_SAMPLERS[name](
            er_graph, config, np.random.default_rng(5), batch_size=1000,
            workers=1, backend="thread", stats=stats,
        )
        assert rows.shape == cols.shape == weights.shape
        assert rows.dtype == cols.dtype == np.int64
        assert weights.min() > 0
        assert np.all(rows <= cols)
        assert np.all(np.diff(rows * er_graph.num_vertices + cols) > 0)
        assert abs(draws - config.num_samples) <= er_graph.num_edges
        assert stats["walk_samples"] >= stats["distinct"] == rows.size

    def test_make_params_accepts_sparsifier(self):
        params = make_params("lightne", sparsifier="ppr", dimension=8)
        assert params.sparsifier == "ppr"
        params = make_params("netsmf", sparsifier="ppr")
        assert params.sparsifier == "ppr"

    def test_make_params_rejects_sparsifier_on_prone(self):
        with pytest.raises(MethodParameterError):
            make_params("prone", sparsifier="ppr")


class TestPathBackendBitIdentity:
    """The refactor guarantee: ``"path"`` == the pre-backend pipeline."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_lightne_style_config(self, er_graph, workers, backend):
        config = PathSamplingConfig(window=3, num_samples=3000, downsample=True)
        direct = build_netmf_sparsifier(
            er_graph, config, seed=11, workers=workers, backend=backend,
            batch_size=500,
        )
        via_layer = build_sparsifier(
            er_graph, config, seed=11, sparsifier="path", workers=workers,
            backend=backend, batch_size=500,
        )
        assert _identical(direct, via_layer)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_netsmf_style_config(self, er_graph, workers):
        config = PathSamplingConfig(window=2, num_samples=2000, downsample=False)
        direct = build_netmf_sparsifier(
            er_graph, config, seed=12, aggregator="sort", workers=workers,
            batch_size=500,
        )
        via_layer = build_sparsifier(
            er_graph, config, seed=12, sparsifier="path",
            aggregator="sort", workers=workers, batch_size=500,
        )
        assert _identical(direct, via_layer)

    def test_worker_count_invariance_through_layer(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=3000, downsample=True)
        results = [
            build_sparsifier(
                er_graph, config, seed=13, sparsifier="path",
                workers=w, backend=b, batch_size=500,
            )
            for w in (1, 2, 4)
            for b in ("thread", "process")
        ]
        assert all(_identical(results[0], r) for r in results[1:])

    def test_embedding_default_equals_explicit_path(self, er_graph):
        default = lightne_embedding(
            er_graph,
            LightNEParams(dimension=8, window=2, sample_multiplier=2),
            seed=5,
        )
        explicit = lightne_embedding(
            er_graph,
            LightNEParams(
                dimension=8, window=2, sample_multiplier=2, sparsifier="path"
            ),
            seed=5,
        )
        np.testing.assert_array_equal(default.vectors, explicit.vectors)

    def test_netsmf_embedding_default_equals_explicit_path(self, er_graph):
        default = netsmf_embedding(
            er_graph, LightNEParams(dimension=8, window=2, sample_multiplier=2), seed=5
        )
        explicit = netsmf_embedding(
            er_graph,
            LightNEParams(dimension=8, window=2, sample_multiplier=2, sparsifier="path"),
            seed=5,
        )
        np.testing.assert_array_equal(default.vectors, explicit.vectors)


class TestPPRDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_and_substrate_invariance(self, er_graph, workers, backend):
        config = PathSamplingConfig(window=3, num_samples=4000)
        reference = build_sparsifier(
            er_graph, config, seed=21, sparsifier="ppr", workers=1,
            backend="thread", batch_size=20,  # force multiple source batches
        )
        other = build_sparsifier(
            er_graph, config, seed=21, sparsifier="ppr", workers=workers,
            backend=backend, batch_size=20,
        )
        assert _identical(reference, other)

    def test_stats_equal_on_every_substrate(self, er_graph):
        """``pushes`` used to be recorded on the thread substrate only, by an
        unsynchronised read-modify-write from the pool threads; each slab now
        returns its count and the parent sums them."""
        config = PathSamplingConfig(window=3, num_samples=4000)

        def stats(workers, backend):
            out = {}
            sample_ppr_counts(
                er_graph, config, 21, batch_size=20, workers=workers,
                backend=backend, stats=out,
            )
            assert (out.pop("workers"), out.pop("backend")) == (workers, backend)
            return out

        reference = stats(1, "thread")
        assert reference["batches"] > 2 and reference["pushes"] > 0
        assert stats(2, "thread") == reference
        assert stats(2, "process") == reference

    def test_embedding_level_determinism(self, er_graph):
        params = LightNEParams(
            dimension=8, window=2, sample_multiplier=2, sparsifier="ppr"
        )
        a = lightne_embedding(er_graph, params, seed=6)
        b = lightne_embedding(er_graph, params, seed=6)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.info["sparsifier"] == "ppr"

    def test_seed_changes_output(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=2000)
        a = build_sparsifier(er_graph, config, seed=1, sparsifier="ppr")
        b = build_sparsifier(er_graph, config, seed=2, sparsifier="ppr")
        assert (a.counts != b.counts).nnz > 0


class TestPPREstimator:
    """PPR must honor the same NetMF estimator contract as PathSampling."""

    def test_mass_matches_budget_in_expectation(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=30_000)
        result = build_sparsifier(er_graph, config, seed=31, sparsifier="ppr")
        assert result.num_draws == config.num_samples
        assert result.counts.sum() == pytest.approx(config.num_samples, rel=0.1)

    def test_walk_operator_row_stochastic(self, er_graph):
        operator, degrees, volume = walk_operator(er_graph)
        np.testing.assert_allclose(
            np.asarray(operator.sum(axis=1)).ravel(), 1.0, atol=1e-12
        )
        assert volume == pytest.approx(degrees.sum())

    def test_quality_improves_with_budget(self):
        g, _ = dcsbm_graph(60, 3, avg_degree=10, seed=0)
        window = 3
        exact = netmf_matrix_dense(g, window=window)

        def correlation(multiplier):
            config = PathSamplingConfig(
                window=window,
                num_samples=PathSamplingConfig.samples_for_multiplier(
                    g, window, multiplier
                ),
            )
            result = build_sparsifier(g, config, seed=0, sparsifier="ppr")
            approx = sparsifier_to_netmf_matrix(g, result).toarray()
            mask = (exact > 0) | (approx > 0)
            return np.corrcoef(exact[mask], approx[mask])[0, 1]

        coarse, fine = correlation(1), correlation(30)
        assert fine > coarse
        assert fine > 0.85

    def test_matches_path_quality_at_equal_budget(self):
        """The ablation's headline claim: at the same sample budget M, the
        PPR estimator is at least as correlated with the dense NetMF matrix
        as Monte-Carlo PathSampling (observed: clearly better)."""
        g, _ = dcsbm_graph(60, 3, avg_degree=10, seed=1)
        window = 3
        exact = netmf_matrix_dense(g, window=window)
        config = PathSamplingConfig(
            window=window,
            num_samples=PathSamplingConfig.samples_for_multiplier(g, window, 2),
        )

        def correlation(sparsifier):
            result = build_sparsifier(g, config, seed=2, sparsifier=sparsifier)
            approx = sparsifier_to_netmf_matrix(g, result).toarray()
            mask = (exact > 0) | (approx > 0)
            return np.corrcoef(exact[mask], approx[mask])[0, 1]

        assert correlation("ppr") >= correlation("path") - 0.02

    def test_resolution_controls_density(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=20_000)

        def distinct_pairs(resolution):
            rows, cols, _, _ = sample_ppr_counts(
                er_graph, config, 3, resolution=resolution
            )
            return np.unique(rows * er_graph.num_vertices + cols).size

        assert distinct_pairs(0.05) >= distinct_pairs(2.0)

    def test_invalid_inputs(self, er_graph):
        rng = np.random.default_rng(0)
        good = PathSamplingConfig(window=2, num_samples=100)
        with pytest.raises(SamplingError):
            sample_ppr_counts(er_graph, good, rng, batch_size=0)
        with pytest.raises(SamplingError):
            sample_ppr_counts(er_graph, good, rng, resolution=0.0)
        empty = from_edges([], [], num_vertices=3)
        with pytest.raises(SamplingError):
            sample_ppr_counts(empty, good, rng)

    def test_stage_and_counters_recorded(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=1500)
        with telemetry.run_scope("run") as root:
            result = build_sparsifier(
                er_graph, config, seed=33, sparsifier="ppr", workers=2
            )
        timer = telemetry.StageTable(root.children)
        assert "sparsifier" in timer.stages
        assert root.children[0].attributes["sparsifier"] == "ppr"
        counters = timer.counters["sparsifier"]
        assert counters["workers"] == 2
        assert counters["walk_samples"] == result.stats["walk_samples"]
        assert counters["batches"] >= 1
        assert result.stats["backend"] in ("thread", "process")
        assert result.stats["resolution"] == pytest.approx(0.25)


class TestWeightedGraphs:
    def test_weighted_seeding_flag_path(self):
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        config = PathSamplingConfig(window=2, num_samples=500)
        result = build_sparsifier(g, config, seed=0, sparsifier="path")
        assert result.stats["weighted_seeding"] == 1.0

    def test_weighted_seeding_flag_ppr(self):
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        config = PathSamplingConfig(window=2, num_samples=500)
        result = build_sparsifier(g, config, seed=0, sparsifier="ppr")
        assert result.stats["weighted_seeding"] == 1.0

    def test_unweighted_flag_zero(self, er_graph):
        assert validate_sparsifier_graph(er_graph) is False

    @pytest.mark.parametrize("sparsifier", ["path", "ppr"])
    def test_nonpositive_weight_rejected(self, sparsifier):
        g = from_edges([0, 1, 2], [1, 2, 3], [1.0, 0.0, 2.0])
        config = PathSamplingConfig(window=2, num_samples=500)
        with pytest.raises(UnsupportedGraphError):
            build_sparsifier(g, config, seed=0, sparsifier=sparsifier)

    @pytest.mark.parametrize("sparsifier", ["path", "ppr"])
    def test_weighted_end_to_end(self, sparsifier):
        rng = np.random.default_rng(3)
        g = erdos_renyi_graph(50, 0.2, seed=4)
        src, dst = g.edge_endpoints()
        weighted = from_edges(
            src, dst, rng.uniform(0.5, 3.0, src.size), symmetrize=False
        )
        params = LightNEParams(
            dimension=8, window=2, sample_multiplier=2, sparsifier=sparsifier
        )
        result = lightne_embedding(weighted, params, seed=0)
        assert result.vectors.shape == (50, 8)
        assert np.all(np.isfinite(result.vectors))


class TestBipartite:
    def test_builder_relabels_right_side(self):
        g = from_bipartite_edges([0, 1, 2], [0, 0, 1], num_left=3, num_right=2)
        assert g.num_vertices == 5
        src, dst = g.edge_endpoints()
        # Every edge crosses the partition boundary at index 3.
        assert np.all((src < 3) != (dst < 3))

    def test_builder_validation(self):
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 1], [0])
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 5], [0, 1], num_left=2)
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 1], [0, 7], num_right=3)

    @pytest.mark.parametrize("sparsifier", ["path", "ppr"])
    def test_end_to_end_embedding(self, sparsifier):
        rng = np.random.default_rng(7)
        left = rng.integers(0, 40, 400)
        right = rng.integers(0, 25, 400)
        g = from_bipartite_edges(left, right, num_left=40, num_right=25)
        params = LightNEParams(
            dimension=8, window=2, sample_multiplier=2, sparsifier=sparsifier
        )
        result = lightne_embedding(g, params, seed=0)
        assert result.vectors.shape == (65, 8)
        users, items = result.vectors[:40], result.vectors[40:]
        assert users.shape == (40, 8) and items.shape == (25, 8)
        assert np.all(np.isfinite(result.vectors))


class TestDynamicEmbedderMethods:
    def test_refresh_forwards_sparsifier(self, er_graph):
        from repro.streaming import DynamicEmbedder, EdgeBatch

        params = LightNEParams(
            dimension=8, window=2, sample_multiplier=2,
            propagate=False, sparsifier="ppr",
        )
        embedder = DynamicEmbedder(er_graph, params, seed=0)
        assert embedder.result.info["sparsifier"] == "ppr"
        embedder.apply(EdgeBatch(np.array([0]), np.array([30])))
        assert embedder.result.info["sparsifier"] == "ppr"

    def test_netsmf_method(self, er_graph):
        from repro.streaming import DynamicEmbedder

        embedder = DynamicEmbedder(
            er_graph,
            LightNEParams(dimension=8, window=2, sample_multiplier=2),
            method="netsmf",
            seed=0,
        )
        assert embedder.method == "netsmf"
        assert embedder.vectors.shape == (er_graph.num_vertices, 8)
        assert embedder.result.info["propagated"] is False

    def test_default_params_are_the_registry_preset(self):
        from repro.streaming import DynamicEmbedder

        graph = erdos_renyi_graph(140, 0.08, seed=2)  # default dimension is 128
        embedder = DynamicEmbedder(graph, method="netmf+", seed=0)
        assert embedder.method == "sketchne"
        assert embedder.params == make_params("sketchne")
        assert embedder.result.info["factorizer"] == "single_pass"

    def test_default_params_from_method(self, sbm_bundle):
        from repro.streaming import DynamicEmbedder

        graph, _ = sbm_bundle
        embedder = DynamicEmbedder(graph, seed=0)
        assert embedder.method == "lightne"
        assert isinstance(embedder.params, LightNEParams)

    def test_params_type_mismatch_raises(self, er_graph):
        from repro.streaming import DynamicEmbedder

        with pytest.raises(GraphConstructionError):
            DynamicEmbedder(
                er_graph, ProNEParams(dimension=8), method="lightne", seed=0
            )
