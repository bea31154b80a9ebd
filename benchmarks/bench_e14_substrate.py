"""E14 — substrate micro-benchmarks (the §4 systems claims in isolation).

pytest-benchmark timings for the individual building blocks LightNE's
end-to-end numbers rest on: the vectorized walk engine, per-edge
PathSampling, the compressed-vs-raw walk penalty, graph compression
throughput, and the GBBS-style fundamental algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import SEED, load
from benchmarks.ligra import compress_graph
from repro.graph.algorithms import bfs, connected_components, pagerank
from repro.graph.walks import step_random_walk
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def crawl():
    return load("hyperlink_pld_like").graph


@pytest.fixture(scope="module")
def compressed(crawl):
    return compress_graph(crawl, 64)


class TestWalkEngine:
    def test_raw_walks(self, benchmark, crawl):
        benchmark.group = "walks"
        rng = ensure_rng(SEED)
        starts = rng.integers(0, crawl.num_vertices, size=20_000)
        steps = np.full(starts.size, 5)
        out = benchmark(lambda: step_random_walk(crawl, starts, steps, SEED))
        assert out.shape == starts.shape

    def test_sorted_gather_walks(self, benchmark, crawl):
        """The §4.2 future-work batching idea: group walkers by vertex."""
        benchmark.group = "walks"
        rng = ensure_rng(SEED)
        starts = rng.integers(0, crawl.num_vertices, size=20_000)
        steps = np.full(starts.size, 5)
        out = benchmark(
            lambda: step_random_walk(crawl, starts, steps, SEED, strategy="sorted")
        )
        assert out.shape == starts.shape

    def test_compressed_walks(self, benchmark, compressed, crawl):
        """The compression tax on random walks (paper §4.2's block-decode
        cost) — expected slower than raw CSR, which is why block size is
        tuned in E11."""
        benchmark.group = "walks"
        rng = ensure_rng(SEED)
        starts = rng.integers(0, crawl.num_vertices, size=2_000)
        steps = np.full(starts.size, 5)
        out = benchmark(lambda: step_random_walk(compressed, starts, steps, SEED))
        assert out.shape == starts.shape


class TestSamplingThroughput:
    def test_path_sampling(self, benchmark, crawl):
        benchmark.group = "sampling"
        config = PathSamplingConfig(
            window=10,
            num_samples=PathSamplingConfig.samples_for_multiplier(crawl, 10, 1.0),
            downsample=True,
        )
        u, _, _, draws = benchmark.pedantic(
            lambda: sample_sparsifier_edges(crawl, config, SEED),
            rounds=3,
            iterations=1,
        )
        assert draws > 0

    def test_path_sampling_counters(self, benchmark, crawl, table):
        """Same kernel, instrumented: the per-stage counters the PR surfaces
        (walk samples, batch count, samples/sec) next to the wall-clock."""
        benchmark.group = "sampling"
        config = PathSamplingConfig(
            window=10,
            num_samples=PathSamplingConfig.samples_for_multiplier(crawl, 10, 1.0),
            downsample=True,
        )
        stats = {}

        def run():
            import time

            start = time.perf_counter()
            sample_sparsifier_edges(
                crawl, config, SEED, batch_size=100_000, stats=stats
            )
            stats["samples_per_sec"] = stats["walk_samples"] / max(
                time.perf_counter() - start, 1e-12
            )
            return stats

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        table(
            "E14 — PathSampling stage counters (batch_size=100k)",
            [
                {
                    "walk_samples": int(rows["walk_samples"]),
                    "batches": int(rows["batches"]),
                    "batch_size": int(rows["batch_size"]),
                    "samples_per_sec": int(rows["samples_per_sec"]),
                }
            ],
        )
        assert rows["batches"] >= 1
        assert rows["samples_per_sec"] > 0


class TestCompressionThroughput:
    def test_compress(self, benchmark, crawl):
        benchmark.group = "compression"
        cg = benchmark.pedantic(lambda: compress_graph(crawl, 64), rounds=3)
        assert cg.num_edges == crawl.num_edges

    def test_decompress(self, benchmark, compressed, crawl):
        benchmark.group = "compression"
        out = benchmark.pedantic(compressed.decompress, rounds=3)
        assert out.num_edges == crawl.num_edges


class TestFundamentalAlgorithms:
    """GBBS's pitch — 'state-of-the-art running times for many fundamental
    graph problems' — sampled on our substrate."""

    def test_bfs(self, benchmark, crawl):
        benchmark.group = "algorithms"
        dist = benchmark(lambda: bfs(crawl, 0))
        assert dist[0] == 0

    def test_connected_components(self, benchmark, crawl):
        benchmark.group = "algorithms"
        labels = benchmark(lambda: connected_components(crawl))
        assert labels.size == crawl.num_vertices

    def test_pagerank(self, benchmark, crawl):
        benchmark.group = "algorithms"
        ranks = benchmark(lambda: pagerank(crawl))
        assert ranks.sum() == pytest.approx(1.0)
