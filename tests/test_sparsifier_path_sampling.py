"""Tests for PathSampling (Algo 1) and per-edge downsampled sampling (Algo 2).

Includes the key distributional test: PathSampling endpoint pairs follow the
``r``-step walk-matrix law ``P(x, y) = A_r(x, y) / vol(G)`` derived in the
builder's docstring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.builders import from_edges
from repro.graph.generators import erdos_renyi_graph
from repro.sparsifier.path_sampling import (
    PathSamplingConfig,
    _per_edge_sample_counts,
    path_sample_pairs,
    per_draw_samples,
    sample_sparsifier_edges,
)


class TestConfig:
    def test_defaults(self):
        config = PathSamplingConfig(window=5, num_samples=100)
        assert config.downsample is True

    def test_invalid_window(self):
        with pytest.raises(SamplingError):
            PathSamplingConfig(window=0)

    def test_invalid_samples(self):
        with pytest.raises(SamplingError):
            PathSamplingConfig(num_samples=-5)

    def test_multiplier_helper(self, er_graph):
        m = er_graph.num_edges
        assert PathSamplingConfig.samples_for_multiplier(er_graph, 10, 2.0) == 20 * m


class TestPerEdgeCounts:
    def test_expectation(self):
        rng = np.random.default_rng(0)
        m, target = 50, 500
        totals = [_per_edge_sample_counts(m, target, rng).sum() for _ in range(200)]
        assert np.mean(totals) == pytest.approx(target, rel=0.05)

    def test_exact_when_divisible(self):
        rng = np.random.default_rng(1)
        counts = _per_edge_sample_counts(10, 100, rng)
        np.testing.assert_array_equal(counts, np.full(10, 10))

    def test_fractional_case_bounds(self):
        rng = np.random.default_rng(2)
        counts = _per_edge_sample_counts(10, 15, rng)
        assert np.all((counts == 1) | (counts == 2))


class TestPathSamplePairs:
    def test_length_one_returns_seed(self, triangle):
        u, v = path_sample_pairs(
            triangle, np.array([0]), np.array([1]), np.array([1]), seed=0
        )
        assert u[0] == 0 and v[0] == 1

    def test_endpoints_valid_vertices(self, er_graph, rng):
        src, dst = er_graph.edge_endpoints()
        take = rng.choice(src.size, 100)
        lengths = rng.integers(1, 6, size=100)
        u, v = path_sample_pairs(er_graph, src[take], dst[take], lengths, rng)
        assert u.min() >= 0 and u.max() < er_graph.num_vertices
        assert v.min() >= 0 and v.max() < er_graph.num_vertices

    def test_invalid_lengths(self, triangle):
        with pytest.raises(SamplingError):
            path_sample_pairs(triangle, np.array([0]), np.array([1]), np.array([0]))

    def test_parallel_arrays(self, triangle):
        with pytest.raises(SamplingError):
            path_sample_pairs(triangle, np.array([0, 1]), np.array([1]), np.array([1]))

    def test_distribution_matches_walk_matrix(self):
        """P(pair = (x, y)) should equal A_r(x, y) / vol(G) for fixed r."""
        g = from_edges([0, 0, 1], [1, 2, 2])  # triangle-ish with asymmetry
        n = g.num_vertices
        r = 2
        adjacency = g.adjacency().toarray()
        degrees = adjacency.sum(1)
        walk = adjacency / degrees[:, None]
        a_r = adjacency @ np.linalg.matrix_power(walk, r - 1)
        expected = a_r / g.volume

        rng = np.random.default_rng(0)
        src, dst = g.edge_endpoints()
        mask = src < dst
        src, dst = src[mask], dst[mask]
        draws = 40_000
        seeds = rng.integers(0, src.size, size=draws)
        flip = rng.random(draws) < 0.5
        s_u = np.where(flip, dst[seeds], src[seeds])
        s_v = np.where(flip, src[seeds], dst[seeds])
        u, v = path_sample_pairs(g, s_u, s_v, np.full(draws, r), rng)
        observed = np.zeros((n, n))
        np.add.at(observed, (u, v), 1.0 / draws)
        np.testing.assert_allclose(observed, expected, atol=0.02)


class TestSampleSparsifierEdges:
    def test_draw_count_near_target(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=5000, downsample=False)
        u, v, w, draws = sample_sparsifier_edges(er_graph, config, seed=0)
        assert w.sum() == draws  # every draw kept, at weight one
        assert abs(draws - 5000) < 500

    def test_no_downsample_unit_weights(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=1000, downsample=False)
        _, _, w, draws = per_draw_samples(er_graph, config, seed=1)
        assert w.size == draws
        np.testing.assert_array_equal(w, 1.0)
        # ... so the stream's sums are whole multiplicities.
        _, _, sums, _ = sample_sparsifier_edges(er_graph, config, seed=1)
        np.testing.assert_array_equal(sums, np.round(sums))
        assert sums.min() >= 1.0

    def test_stream_is_the_reduced_upper_triangle(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=4000)
        rows, cols, sums, _ = sample_sparsifier_edges(
            er_graph, config, seed=2, batch_size=300
        )
        assert np.all(rows <= cols)
        keys = rows * er_graph.num_vertices + cols
        assert np.all(np.diff(keys) > 0)  # distinct, in key order
        assert sums.dtype == np.float64 and np.all(sums >= 1.0)

    def test_downsample_reduces_output(self):
        g = erdos_renyi_graph(100, 0.4, seed=3)  # dense: m >> n
        base = PathSamplingConfig(window=3, num_samples=20_000, downsample=False)
        down = PathSamplingConfig(
            window=3, num_samples=20_000, downsample=True, downsample_constant=1.0
        )
        kept, dropped = {}, {}
        sample_sparsifier_edges(g, base, seed=4, stats=kept)
        _, _, w1, _ = sample_sparsifier_edges(g, down, seed=4, stats=dropped)
        assert kept["walk_samples"] == kept["draws"]
        assert dropped["walk_samples"] < kept["walk_samples"] * 0.6
        assert np.all(w1 >= 1.0)  # weights are 1/p_e >= 1

    def test_downsample_preserves_total_weight(self):
        g = erdos_renyi_graph(80, 0.3, seed=5)
        target = 30_000
        down = PathSamplingConfig(
            window=2, num_samples=target, downsample=True, downsample_constant=0.5
        )
        _, _, w, draws = sample_sparsifier_edges(g, down, seed=6)
        # E[sum of kept weights] = number of draws.
        assert w.sum() == pytest.approx(draws, rel=0.1)

    def test_empty_graph_rejected(self):
        g = from_edges([], [], num_vertices=3)
        config = PathSamplingConfig(window=2, num_samples=10)
        with pytest.raises(SamplingError):
            sample_sparsifier_edges(g, config, seed=0)

    def test_zero_samples_rejected(self, triangle):
        config = PathSamplingConfig(window=2, num_samples=0)
        with pytest.raises(SamplingError):
            sample_sparsifier_edges(triangle, config, seed=0)

    def test_batching_equivalence_in_size(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=2000, downsample=False)
        _, _, w1, d1 = sample_sparsifier_edges(er_graph, config, seed=8, batch_size=100)
        _, _, w2, d2 = sample_sparsifier_edges(er_graph, config, seed=8, batch_size=10**6)
        assert d1 == d2  # draw counts are pre-batching, hence identical
        assert w1.sum() == w2.sum() == d1

    def test_invalid_batch_size(self, er_graph):
        config = PathSamplingConfig(window=2, num_samples=100)
        with pytest.raises(SamplingError):
            sample_sparsifier_edges(er_graph, config, seed=0, batch_size=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_invalid_workers(self, er_graph, workers):
        """A pool width below one used to run the stage serially and record
        the bad width in its stats, so the pipeline failed only later, in
        the factorize stage."""
        from repro.embedding.lightne import LightNEParams, lightne_embedding
        from repro.sparsifier.builder import build_sparsifier

        config = PathSamplingConfig(window=2, num_samples=100)
        with pytest.raises(SamplingError, match="workers"):
            sample_sparsifier_edges(er_graph, config, seed=0, workers=workers)
        with pytest.raises(SamplingError, match="workers"):
            build_sparsifier(er_graph, config, seed=0, workers=workers)
        with pytest.raises(SamplingError, match="workers"):
            lightne_embedding(er_graph, LightNEParams(dimension=8, workers=workers))


class TestSelfLoopAlignment:
    """Regression: per-edge arrays must be sized by the seed-edge count
    (one per undirected edge, a self-loop being its own), not
    ``graph.num_edges`` — self-loops used to misalign the seed indices
    (IndexError / wrong ``1/p_e`` weights).  Loops are seeded at half an
    edge's mass; ``tests/contracts/test_estimator_unbiased.py`` holds the
    law."""

    @pytest.fixture
    def loopy(self):
        # 4-cycle plus self-loops at 1 and 2: num_edges=5, seed edges=6.
        return from_edges(
            [0, 1, 2, 0, 1, 2], [1, 2, 3, 3, 1, 2], drop_self_loops=False
        )

    def test_counts_match_seedable_edges(self, loopy):
        src, dst = loopy.edge_endpoints()
        assert (src < dst).sum() < loopy.num_edges  # fixture has real loops

    def test_runs_without_downsampling(self, loopy):
        config = PathSamplingConfig(window=3, num_samples=400, downsample=False)
        u, v, w, draws = sample_sparsifier_edges(loopy, config, seed=0)
        assert w.sum() == draws

    def test_weights_match_serial_reference(self, loopy):
        """Every kept weight must be a ``1/p_e`` of a *seed* edge, and the
        parallel run must equal the serial one exactly."""
        from repro.sparsifier.downsampling import downsampling_probabilities

        config = PathSamplingConfig(window=3, num_samples=600, downsample=True)
        u1, v1, w1, d1 = sample_sparsifier_edges(loopy, config, seed=5, workers=1)
        u4, v4, w4, d4 = sample_sparsifier_edges(loopy, config, seed=5, workers=4)
        np.testing.assert_array_equal(u1, u4)
        np.testing.assert_array_equal(v1, v4)
        np.testing.assert_array_equal(w1, w4)
        assert d1 == d4
        src, dst = loopy.edge_endpoints()
        seeds = src <= dst
        probs = downsampling_probabilities(
            src[seeds], dst[seeds], loopy.weighted_degrees()
        )
        legal = np.unique(1.0 / probs)
        assert np.isin(per_draw_samples(loopy, config, seed=5)[2], legal).all()

    def test_full_lightne_pipeline(self, loopy):
        from repro.embedding.lightne import LightNEParams, lightne_embedding

        result = lightne_embedding(
            loopy, LightNEParams(dimension=2, window=2), seed=0
        )
        assert result.vectors.shape == (loopy.num_vertices, 2)
        assert np.isfinite(result.vectors).all()

    def test_only_self_loops_rejected(self):
        g = from_edges([0, 1], [0, 1], drop_self_loops=False, num_vertices=2)
        config = PathSamplingConfig(window=2, num_samples=10)
        with pytest.raises(SamplingError):
            sample_sparsifier_edges(g, config, seed=0)


class TestParallelSampling:
    """The batch/worker restructure: fixed-size slabs, per-batch-index RNG
    streams, bit-identical output for every worker count."""

    CONFIG = PathSamplingConfig(window=4, num_samples=6000, downsample=True)

    def test_worker_determinism(self, er_graph):
        serial = sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=11, workers=1, batch_size=500
        )
        threaded = sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=11, workers=4, batch_size=500
        )
        for a, b in zip(serial[:3], threaded[:3]):
            np.testing.assert_array_equal(a, b)
        assert serial[3] == threaded[3]

    def test_more_workers_than_cores_under_fast_switching(self, er_graph):
        """Stress: eight threads on tiny slabs with the interpreter switching
        every 10 µs — slabs finish out of order and interleave with the
        parent's folds; the stream must still be the serial one, bit for bit."""
        import sys

        serial = sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=21, workers=1, batch_size=60
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                stressed = sample_sparsifier_edges(
                    er_graph, self.CONFIG, seed=21, workers=8, batch_size=60
                )
                for a, b in zip(serial, stressed):
                    np.testing.assert_array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    def test_workers_none_resolves_to_default(self, er_graph):
        u, _, _, draws = sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=12, workers=None
        )
        assert u.size <= draws

    def test_batch_size_honored_with_workers(self, er_graph, monkeypatch):
        """The walk kernel must only ever see the survivors of one slab —
        about ``batch_size`` draws, an edge's draws never split — also on
        the threaded path (it used to get one chunk per worker)."""
        import repro.sparsifier.path_sampling as ps

        sizes = []
        original = ps.path_sample_pairs

        def recording(graph, seed_u, seed_v, lengths, seed=None):
            sizes.append(seed_u.size)
            return original(graph, seed_u, seed_v, lengths, seed)

        monkeypatch.setattr(ps, "path_sample_pairs", recording)
        batch_size = 97
        stats = {}
        sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=13, workers=4,
            batch_size=batch_size, stats=stats,
        )
        assert sizes, "walk kernel never invoked"
        src, dst = er_graph.edge_endpoints()
        most_per_edge = -(-self.CONFIG.num_samples // int((src < dst).sum()))
        assert max(sizes) < batch_size + most_per_edge
        assert sum(sizes) == stats["walk_samples"]
        assert len(sizes) == stats["batches"]
        # One slab per batch_size-wide window of the draw sequence in which
        # some edge's first draw falls: all of them, but perhaps the last.
        whole, ragged = divmod(stats["draws"], batch_size)
        assert whole <= stats["batches"] <= whole + bool(ragged)

    def test_stats_populated(self, er_graph):
        stats = {}
        _, _, _, draws = sample_sparsifier_edges(
            er_graph, self.CONFIG, seed=14, workers=2, batch_size=1000,
            stats=stats,
        )
        assert stats["draws"] == draws
        assert stats["workers"] == 2
        assert stats["batch_size"] == 1000
        assert stats["batches"] >= 1

    def test_seed_sequence_input(self, er_graph):
        seq = np.random.SeedSequence(77)
        a = sample_sparsifier_edges(er_graph, self.CONFIG, seed=np.random.SeedSequence(77), workers=1)
        b = sample_sparsifier_edges(er_graph, self.CONFIG, seed=seq, workers=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2], b[2])


@pytest.mark.parametrize("workers", [1, 2])
def test_resident_set_is_batch_plus_nnz(workers):
    """The memory law ``batch_size``'s docstring states: what the stage holds
    follows the slab workspace and the distinct pairs, not the draw budget."""
    import tracemalloc

    from repro.sparsifier.builder import build_sparsifier

    # Dense and small: 7 260 possible pairs, saturated from multiplier 4 on.
    graph = erdos_renyi_graph(120, 0.5, seed=2)

    def peak(multiplier, batch_size):
        config = PathSamplingConfig(
            window=3,
            num_samples=PathSamplingConfig.samples_for_multiplier(
                graph, 3, multiplier
            ),
            downsample=False,
        )
        tracemalloc.start()
        try:
            result = build_sparsifier(
                graph, config, seed=3, workers=workers, batch_size=batch_size
            )
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    small, few = peak(4, 2048)
    large, many = peak(16, 2048)
    assert many.num_draws > 3.9 * few.num_draws
    assert many.nnz < 1.1 * few.nnz  # saturated: the same pairs, drawn more often
    assert large < 1.5 * small  # the parent commit read 3.9x
    wide, _ = peak(16, 8192)
    assert large < 0.9 * wide
