"""Tests for the sparsifier → NetMF-matrix estimator.

The central correctness property: the sparsified matrix converges to the
dense NetMF matrix (Eq. 1) as the sample budget grows.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.embedding.lightne import (
    LightNEParams,
    lightne_embedding,
    netsmf_embedding,
)
from repro.embedding.netmf import netmf_matrix_dense
from repro.embedding.registry import make_params, run_method
from repro.errors import SamplingError
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from repro.sparsifier.aggregation import aggregate_sort
from repro.sparsifier.builder import (
    SparsifierResult,
    aggregate_sample_counts,
    aggregate_to_counts,
    build_sparsifier,
    sparsifier_to_netmf_matrix,
    trunc_log,
)
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges
from repro.telemetry import health
from repro.telemetry.health import fingerprint


def _assert_same_csr(got, expected):
    """Bit-identical CSR: same structure arrays (and dtypes), same data."""
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestTruncLog:
    def test_values(self):
        m = sp.csr_matrix(np.array([[0.0, 0.5], [np.e, np.e**2]]))
        out = trunc_log(m).toarray()
        np.testing.assert_allclose(out, [[0.0, 0.0], [1.0, 2.0]])

    def test_eliminates_sub_one_entries(self):
        m = sp.csr_matrix(np.array([[0.9, 2.0]]))
        out = trunc_log(m)
        assert out.nnz == 1

    def test_input_not_mutated(self):
        m = sp.csr_matrix(np.array([[np.e]]))
        trunc_log(m)
        assert m[0, 0] == pytest.approx(np.e)


class TestBuilder:
    def test_counts_shape_and_mass(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=4000, downsample=False)
        result = build_sparsifier(er_graph, config, seed=0)
        n = er_graph.num_vertices
        assert result.counts.shape == (n, n)
        assert result.counts.sum() == pytest.approx(result.num_draws)

    def test_downsampled_mass_preserved_in_expectation(self, er_graph):
        config = PathSamplingConfig(
            window=3, num_samples=30_000, downsample=True, downsample_constant=1.0
        )
        result = build_sparsifier(er_graph, config, seed=1)
        assert result.counts.sum() == pytest.approx(result.num_draws, rel=0.1)

    def test_timer_records_stage(self, er_graph):
        """Inside a run the builder's stage is a real span, tracing off."""
        config = PathSamplingConfig(window=2, num_samples=500, downsample=False)
        with telemetry.run_scope("run") as root:
            build_sparsifier(er_graph, config, seed=2)
        assert "sparsifier" in telemetry.StageTable(root.children).stages

    def test_aggregators_agree(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=2000, downsample=False)
        a = build_sparsifier(er_graph, config, seed=3, aggregator="hash")
        b = build_sparsifier(er_graph, config, seed=3, aggregator="sort")
        c = build_sparsifier(
            er_graph, config, seed=3, aggregator="hash-sharded"
        )
        assert (a.counts != b.counts).nnz == 0
        assert (a.counts != c.counts).nnz == 0

    def test_unknown_aggregator(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=100)
        with pytest.raises(SamplingError):
            build_sparsifier(er_graph, config, aggregator="wat")

    def test_nnz_property(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=1000, downsample=False)
        result = build_sparsifier(er_graph, config, seed=4)
        assert result.nnz == result.counts.nnz

    def test_worker_count_invariance(self, er_graph):
        """The same seed must yield a bit-identical sparsifier matrix for
        every worker count (the PR's determinism guarantee)."""
        config = PathSamplingConfig(window=3, num_samples=4000, downsample=True)
        serial = build_sparsifier(
            er_graph, config, seed=6, workers=1, batch_size=500
        )
        threaded = build_sparsifier(
            er_graph, config, seed=6, workers=4, batch_size=500
        )
        assert serial.num_draws == threaded.num_draws
        assert (serial.counts != threaded.counts).nnz == 0

    def test_counters_recorded(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=1500, downsample=False)
        with telemetry.run_scope("run") as root:
            result = build_sparsifier(er_graph, config, seed=7, workers=2)
        (stage,) = root.children
        # SparsifierResult.stats is written onto the stage span as is ...
        assert stage.attributes.items() >= result.stats.items()
        # ... and its numeric entries are the stage's counters.
        counters = telemetry.StageTable(root.children).counters["sparsifier"]
        assert counters["workers"] == 2
        assert counters["walk_samples"] == result.stats["walk_samples"]
        assert counters["samples_per_sec"] > 0
        assert counters["peak_table_bytes"] > 0
        assert result.stats["sampling_seconds"] >= 0
        assert result.stats["aggregation_seconds"] >= 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counters_stay_per_draw_on_a_multi_slab_run(self, er_graph, backend):
        """The sampler hands over distinct pairs, the counters still count
        draws: survivors per second, not output length per second."""
        config = PathSamplingConfig(window=3, num_samples=6000)
        result = build_sparsifier(
            er_graph, config, seed=7, workers=2, backend=backend, batch_size=500
        )
        stats = result.stats
        assert 8 <= stats["draws"] // 500 <= stats["batches"] <= -(-stats["draws"] // 500)
        assert stats["draws"] == result.num_draws
        assert stats["distinct"] == result.nnz < stats["walk_samples"] < stats["draws"]
        assert stats["samples_per_sec"] * stats["sampling_seconds"] == pytest.approx(
            stats["walk_samples"]
        )
        assert 16 * stats["distinct"] <= stats["peak_table_bytes"]
        assert (stats["batch_size"], stats["workers"], stats["backend"]) == (
            500, 2, backend,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_draw_losing_its_coin_still_counts_as_drawn(
        self, er_graph, workers
    ):
        config = PathSamplingConfig(
            window=3, num_samples=3000, downsample_constant=1e-12
        )
        telemetry.enable()
        try:
            result = build_sparsifier(
                er_graph, config, seed=1, workers=workers, batch_size=500
            )
            counters = telemetry.get_tracer().counters
        finally:
            telemetry.disable()
        assert result.nnz == 0 and result.num_draws > 0
        assert counters["sparsifier.draws"] == result.num_draws
        assert counters["sparsifier.walk_samples"] == 0
        assert counters["sparsifier.batches"] == result.stats["batches"] >= 5
        assert result.stats["walk_samples"] == result.stats["distinct"] == 0
        assert result.stats["samples_per_sec"] == 0
        assert sparsifier_to_netmf_matrix(er_graph, result).nnz == 0

    def test_sharded_stats(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=1500, downsample=False)
        u, v, w, _ = sample_sparsifier_edges(er_graph, config, 8, workers=3)
        n = er_graph.num_vertices
        want_stats, stats = {}, {}
        want = aggregate_sort(u, v, w, n, stats=want_stats)
        got = aggregate_sample_counts(
            u, v, w, n, aggregator="hash-sharded", workers=3, stats=stats,
        )
        # Every name runs the sort kernel: no shard tables (those are the
        # E12/E15 fixture benchmarks/hashing.py), the kernel's own stats.
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert stats == want_stats

    def test_sharded_worker_count_invariance(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=3000, downsample=True)
        serial = build_sparsifier(
            er_graph, config, seed=9, aggregator="hash-sharded", workers=1
        )
        threaded = build_sparsifier(
            er_graph, config, seed=9, aggregator="hash-sharded", workers=4
        )
        assert (serial.counts != threaded.counts).nnz == 0


class TestSortDefault:
    """The sort-reduce kernel is the production aggregator."""

    def test_builder_default_is_sort(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=2000, downsample=False)
        default = build_sparsifier(er_graph, config, seed=3)
        explicit = build_sparsifier(
            er_graph, config, seed=3, aggregator="sort"
        )
        _assert_same_csr(default.counts, explicit.counts)
        assert default.stats["peak_table_bytes"] > 0
        assert "probe_rounds" not in default.stats  # no hash table was built

    def test_params_defaults_and_peak_bytes(self, er_graph):
        for method in ("lightne", "netsmf"):
            assert make_params(method).aggregator == "sort"
        params = LightNEParams(dimension=8, window=2)
        for embed in (lightne_embedding, netsmf_embedding):
            result = embed(er_graph, params, 0)
            assert result.timer.counters["sparsifier"]["peak_table_bytes"] > 0

    @pytest.mark.parametrize("aggregator", ["sort", "hash", "hash-sharded"])
    def test_direct_csr_assembly_equals_coo_construction(self, rng, aggregator):
        # n leaves empty leading, interior and trailing rows.
        n = 50
        u = rng.integers(5, 40, size=3000)
        u[u == 17] = 18
        v = rng.integers(0, n, size=3000)
        w = rng.random(3000)
        # What a sampler hands over: distinct pairs in row-major key order.
        rows, cols, vals = aggregate_sort(u, v, w, n)
        counts = aggregate_to_counts(
            rows, cols, vals, n, aggregator=aggregator, stats={},
        )
        _assert_same_csr(counts, sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))
        assert counts.has_sorted_indices and counts.has_canonical_format

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("aggregator", ["sort", "hash", "hash-sharded"])
    def test_counts_unchanged_from_pre_sort_default_commit(
        self, aggregator, backend
    ):
        # Content digest of the count matrix, identical for all six cells
        # since the commit before sort became the default (c0c7eb3f2bab41b8
        # until the stage became a stream: slab RNG streams for the coins,
        # per-slab partial sums, one stored triangle — ISSUE 22's declared
        # re-baseline, gated by tests/contracts/test_estimator_unbiased.py).
        graph = erdos_renyi_graph(120, 0.1, seed=5)
        config = PathSamplingConfig(
            window=3, num_samples=6000, downsample=True, downsample_constant=1.0
        )
        result = build_sparsifier(
            graph, config, seed=11, aggregator=aggregator, workers=2,
            backend=backend, batch_size=1500,
        )
        assert fingerprint("counts", result.counts).digest == "08c98a7ee9fd9fe1"

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_netmf_matrix_digest_is_the_float64_matrix(self, precision):
        # The NetMF matrix's content digest, as the commit before the
        # operators were built in place recorded it.  The checkpoint comes
        # before the cast to the run's precision, so both precisions
        # digest the same float64 matrix.
        graph = erdos_renyi_graph(120, 0.1, seed=5)
        with health.policy_scope("record"):
            result = run_method(
                "lightne", graph, seed=11, dimension=8, window=3,
                multiplier=4.0, workers=2, precision=precision,
            )
        digests = result.run.health.digest_map()
        assert digests["svd.netmf_matrix"] == "d4d08ba1621ad650"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "method,digest",
        [("netsmf", "2d689d1a385fcb0f")],
    )
    def test_preset_counts_unchanged_from_their_own_modules(
        self, method, digest, backend
    ):
        # Count-matrix content digest: as a preset of the lightne body
        # netsmf builds the matrix its own module did (d63037f42f61db2a
        # until the stage became a stream, see the test above).
        graph = erdos_renyi_graph(120, 0.1, seed=5)
        with health.policy_scope("record"):
            result = run_method(
                method, graph, seed=11, dimension=8, window=3, multiplier=4.0,
                workers=2, backend=backend,
            )
        assert result.method == method
        assert result.run.health.digest_map()["sparsifier"] == digest

    def test_replay_contract(self):
        """What ``benchmarks/perf/layers.py`` replays — the sampler, then
        ``aggregate_sample_counts``, then COO assembly, one ``Generator``
        threaded through — is ``build_sparsifier`` bit for bit: the stream
        is already distinct, so re-aggregating it is the identity, and the
        builder draws nothing from ``rng`` beyond what the sampler does.  It
        also makes every aggregator × substrate × worker count one matrix."""
        graph = erdos_renyi_graph(120, 0.1, seed=5)
        n = graph.num_vertices
        config = PathSamplingConfig(window=3, num_samples=6000)
        cells = []
        for aggregator in ("sort", "hash", "hash-sharded"):
            for backend in ("thread", "process"):
                for workers in (1, 2, 4):
                    knobs = dict(workers=workers, backend=backend)
                    rng = np.random.default_rng(11)
                    built = build_sparsifier(
                        graph, config, rng, aggregator=aggregator,
                        batch_size=600, **knobs,
                    )
                    assert built.stats["batches"] >= 8
                    replay_rng, stats = np.random.default_rng(11), {}
                    u, v, w, draws = sample_sparsifier_edges(
                        graph, config, replay_rng, batch_size=600, stats=stats,
                        **knobs,
                    )
                    rows, cols, vals = aggregate_sample_counts(
                        u, v, w, n, aggregator=aggregator, stats=stats, **knobs
                    )
                    replayed = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
                    _assert_same_csr(replayed, built.counts)
                    assert draws == built.num_draws
                    assert replay_rng.bit_generator.state == rng.bit_generator.state
                    cells.append(built.counts)
        assert len(cells) == 18
        for counts in cells[1:]:
            _assert_same_csr(counts, cells[0])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hash_variants_embed_identically_to_default(self, er_graph, backend):
        vectors = [
            lightne_embedding(
                er_graph,
                LightNEParams(
                    dimension=8, window=3, aggregator=aggregator, workers=2,
                    backend=backend, batch_size=700,
                ),
                seed=4,
            ).vectors
            for aggregator in ("sort", "hash", "hash-sharded")
        ]
        np.testing.assert_array_equal(vectors[0], vectors[1])
        np.testing.assert_array_equal(vectors[0], vectors[2])

    def test_stage_aggregates_once_for_every_name(self, er_graph, monkeypatch):
        """The sampler folds each draw into its pair once; no name sends the
        stream through a second aggregation pass."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the stage re-aggregated the sampler's stream")

        for target in (
            "repro.sparsifier.builder.aggregate_sample_counts",
            "repro.sparsifier.builder.aggregate_sort",
        ):
            monkeypatch.setattr(target, unreachable)
        config = PathSamplingConfig(window=3, num_samples=3000)
        for backend in ("thread", "process"):
            runs = {
                aggregator: build_sparsifier(
                    er_graph, config, seed=6, aggregator=aggregator,
                    workers=2, backend=backend, batch_size=500,
                )
                for aggregator in ("sort", "hash", "hash-sharded")
            }
            for aggregator, result in runs.items():
                assert result.stats["batches"] >= 5
                assert not {"num_shards", "shard_table_bytes", "probe_rounds"} & set(
                    result.stats
                ), aggregator
                assert (
                    result.stats["peak_table_bytes"]
                    == runs["sort"].stats["peak_table_bytes"] > 0
                )


def _netmf_transform_oracle(graph, result, negative_samples=1.0):
    """``sparsifier_to_netmf_matrix`` as written before it went in place:
    sparse×diagonal products, then a masked log into a fresh array."""
    degrees = graph.weighted_degrees()
    degrees = np.where(degrees > 0, degrees, 1.0)
    scale = graph.volume * graph.volume / (negative_samples * result.num_draws)
    symmetric = (result.counts + result.counts.T) * 0.5
    inv_d = sp.diags(1.0 / degrees)
    scaled = ((inv_d @ symmetric @ inv_d) * scale).tocsr()
    out = np.zeros_like(scaled.data)
    positive = scaled.data > 1.0
    out[positive] = np.log(scaled.data[positive])
    scaled.data = out
    scaled.eliminate_zeros()
    return scaled


def _transform_graph(kind):
    if kind == "unweighted":
        return erdos_renyi_graph(60, 0.15, seed=7)
    rng = np.random.default_rng(0)
    src, dst = rng.integers(0, 40, size=300), rng.integers(0, 40, size=300)
    if kind == "weighted":
        return from_edges(src, dst, rng.random(300) + 0.1)
    if kind == "self_loops":
        return from_edges(src, dst, drop_self_loops=False)
    # vertices 40..49 are isolated (degree 0 -> scaled as degree 1)
    return from_edges(src, dst, num_vertices=50)


def _repeat_gather_oracle(graph, result, negative_samples=1.0):
    """``sparsifier_to_netmf_matrix`` as written before it called scipy's
    compiled row/column scaling: the same four products, with the row and
    column factors spelled out as two nnz-sized float64 arrays."""
    degrees = graph.weighted_degrees()
    if np.any(degrees <= 0):
        degrees = np.where(degrees > 0, degrees, 1.0)
    volume = graph.volume
    scale = volume * volume / (negative_samples * result.num_draws)
    matrix = (result.counts + result.counts.T).tocsr()
    inv_d = 1.0 / degrees
    data = matrix.data
    data *= 0.5
    data *= np.repeat(inv_d, np.diff(matrix.indptr))
    data *= inv_d[matrix.indices]
    data *= scale
    return trunc_log(matrix)


@st.composite
def _counted_graphs(draw):
    """A graph (optionally weighted, with trailing isolated vertices) and a
    count triangle over its first ``n`` vertices, in the sampler's layout;
    a counted vertex without edges takes the transform's degree-1 guard."""
    n = draw(st.integers(2, 25))
    m = draw(st.integers(1, 3 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    sources, targets = draw(ends), draw(ends)
    weights = draw(st.one_of(
        st.none(), st.lists(st.floats(0.01, 50.0), min_size=m, max_size=m)
    ))
    graph = from_edges(
        sources, targets, weights,
        num_vertices=n + draw(st.integers(0, 3)), drop_self_loops=False,
    )
    pairs = draw(st.integers(0, 4 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=pairs, max_size=pairs)
    x, y = np.array(draw(ends), dtype=np.int64), np.array(draw(ends), dtype=np.int64)
    sums = np.array(
        draw(st.lists(st.floats(0.01, 1e4), min_size=pairs, max_size=pairs))
    )
    size = graph.num_vertices
    counts = sp.csr_matrix(
        (sums, (np.minimum(x, y), np.maximum(x, y))), shape=(size, size)
    )
    draws = draw(st.integers(1, 10**6))
    return graph, SparsifierResult(
        counts=counts, num_draws=draws, window=3, stats={}
    )


class TestInPlaceTransform:
    @settings(max_examples=80, deadline=None)
    @given(
        case=_counted_graphs(),
        negative_samples=st.sampled_from([0.5, 1.0, 5.0]),
    )
    def test_equals_the_repeat_gather_expression(self, case, negative_samples):
        graph, result = case
        assume(graph.volume > 0)
        _assert_same_csr(
            sparsifier_to_netmf_matrix(
                graph, result, negative_samples=negative_samples
            ),
            _repeat_gather_oracle(graph, result, negative_samples),
        )

    @pytest.mark.parametrize(
        "kind", ["unweighted", "weighted", "self_loops", "isolated"]
    )
    def test_equals_sparse_diagonal_expression(self, kind):
        graph = _transform_graph(kind)
        config = PathSamplingConfig(
            window=3,
            num_samples=PathSamplingConfig.samples_for_multiplier(graph, 3, 5),
        )
        result = build_sparsifier(graph, config, seed=2)
        before = result.counts.copy()
        got = sparsifier_to_netmf_matrix(graph, result, negative_samples=2.0)
        _assert_same_csr(got, _netmf_transform_oracle(graph, result, 2.0))
        assert 0 < got.nnz < (result.counts + result.counts.T).nnz
        _assert_same_csr(result.counts, before)  # the sparsifier is not consumed


class TestEstimator:
    def test_converges_to_dense_netmf(self):
        """More samples -> closer to Eq. (1); correlation should be high."""
        g, _ = dcsbm_graph(60, 3, avg_degree=10, seed=0)
        window = 3
        exact = netmf_matrix_dense(g, window=window)

        config = PathSamplingConfig(
            window=window,
            num_samples=PathSamplingConfig.samples_for_multiplier(g, window, 50),
            downsample=False,
        )
        result = build_sparsifier(g, config, seed=0)
        approx = sparsifier_to_netmf_matrix(g, result).toarray()

        mask = (exact > 0) | (approx > 0)
        correlation = np.corrcoef(exact[mask], approx[mask])[0, 1]
        assert correlation > 0.9
        # Magnitudes should agree too, not just order.
        assert np.abs(exact[mask] - approx[mask]).mean() < 0.5

    def test_more_samples_less_error(self):
        g = erdos_renyi_graph(50, 0.2, seed=1)
        window = 2
        exact = netmf_matrix_dense(g, window=window)

        def error(multiplier, seed):
            config = PathSamplingConfig(
                window=window,
                num_samples=PathSamplingConfig.samples_for_multiplier(
                    g, window, multiplier
                ),
                downsample=False,
            )
            result = build_sparsifier(g, config, seed=seed)
            approx = sparsifier_to_netmf_matrix(g, result).toarray()
            return np.linalg.norm(exact - approx)

        coarse = np.mean([error(1, s) for s in range(3)])
        fine = np.mean([error(40, s) for s in range(3)])
        assert fine < coarse

    def test_downsampling_keeps_estimator_close(self):
        g = erdos_renyi_graph(50, 0.3, seed=2)  # dense enough to downsample
        window = 2
        exact = netmf_matrix_dense(g, window=window)
        config = PathSamplingConfig(
            window=window,
            num_samples=PathSamplingConfig.samples_for_multiplier(g, window, 80),
            downsample=True,
        )
        result = build_sparsifier(g, config, seed=3)
        approx = sparsifier_to_netmf_matrix(g, result).toarray()
        mask = (exact > 0) | (approx > 0)
        correlation = np.corrcoef(exact[mask], approx[mask])[0, 1]
        assert correlation > 0.8

    def test_padding_with_isolated_vertices_changes_nothing(self):
        """Trailing isolated vertices used to cost the last connected vertex
        its final edge weight in ``weighted_degrees``, skewing its coin and
        its ``D⁻¹`` scaling.  With the degrees right
        the padded graph draws the same samples, and its NetMF matrix is the
        original one bordered by empty rows."""
        graph = _transform_graph("weighted")
        n = graph.num_vertices
        assert graph.degree(n - 1) >= 2
        src, dst = graph.edge_endpoints()
        once = src < dst
        padded = from_edges(
            src[once], dst[once], graph.weights[once], num_vertices=n + 5
        )
        np.testing.assert_array_equal(
            padded.weighted_degrees()[:n], graph.weighted_degrees()
        )
        # A fixed C: the default log n would differ between the two graphs.
        config = PathSamplingConfig(
            window=3, num_samples=20_000, downsample_constant=2.0
        )
        matrices = [
            sparsifier_to_netmf_matrix(
                g, build_sparsifier(g, config, seed=6)
            )
            for g in (graph, padded)
        ]
        assert matrices[0].nnz == matrices[1].nnz > 0
        assert (matrices[1][:n, :n] != matrices[0]).nnz == 0

    def test_symmetry(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=5000, downsample=False)
        result = build_sparsifier(er_graph, config, seed=4)
        matrix = sparsifier_to_netmf_matrix(er_graph, result)
        assert np.abs((matrix - matrix.T)).max() < 1e-9

    def test_empty_draws_rejected(self, er_graph):
        fake = SparsifierResult(
            counts=sp.csr_matrix((er_graph.num_vertices, er_graph.num_vertices)),
            num_draws=0,
            window=2,
        )
        with pytest.raises(SamplingError):
            sparsifier_to_netmf_matrix(er_graph, fake)

    def test_bad_negative_samples(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=100, downsample=False)
        result = build_sparsifier(er_graph, config, seed=5)
        with pytest.raises(SamplingError):
            sparsifier_to_netmf_matrix(er_graph, result, negative_samples=0)
