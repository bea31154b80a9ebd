"""E11 — §4.1 design choice: the block-size trade-off of Ligra+ compression.

The paper: "we chose a block size of 64 after experimentally evaluating the
trade-off between the compressed size of the graph in memory, and the
latency of fetching arbitrary edges incident to vertices."

We replay that experiment: for block sizes 4…256, measure (a) compressed
bytes and (b) random i-th-neighbor fetch latency, and check the expected
monotone trade-off (bigger blocks → smaller memory, slower point fetches).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.harness import SEED, load
from benchmarks.ligra import compress_graph
from repro.utils.rng import ensure_rng

BLOCK_SIZES = (4, 16, 64, 256)


@pytest.fixture(scope="module")
def crawl():
    return load("hyperlink_pld_like").graph


def _fetch_latency(cg, vertices, indices) -> float:
    start = time.perf_counter()
    cg.ith_neighbors(vertices, indices)
    return time.perf_counter() - start


def test_e11_block_size_tradeoff(benchmark, table, crawl):
    rng = ensure_rng(SEED)
    degrees = crawl.degrees()
    eligible = np.flatnonzero(degrees > 0)
    vertices = rng.choice(eligible, size=3000)
    indices = (rng.integers(0, 2**31, size=3000) % degrees[vertices]).astype(np.int64)
    raw_bytes = crawl.offsets.nbytes + crawl.targets.nbytes

    def run():
        rows = []
        for block_size in BLOCK_SIZES:
            cg = compress_graph(crawl, block_size)
            latency = min(
                _fetch_latency(cg, vertices, indices) for _ in range(3)
            )
            rows.append(
                {
                    "block": block_size,
                    "bytes": cg.size_in_bytes(),
                    "vs_csr": f"{cg.size_in_bytes() / raw_bytes:.2f}x",
                    "fetch_us_per_edge": round(1e6 * latency / vertices.size, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(
        "E11 / §4.1 — Ligra+ block-size trade-off on hyperlink_pld_like "
        "(paper picks 64: near-minimal memory, acceptable fetch latency)",
        rows,
    )
    sizes = [r["bytes"] for r in rows]
    assert sizes == sorted(sizes, reverse=True), "memory shrinks with block size"
    # Point-fetch cost grows from the smallest to the largest block size.
    assert rows[-1]["fetch_us_per_edge"] >= rows[0]["fetch_us_per_edge"]


def test_e11_fetch_benchmark_block64(benchmark, crawl):
    """pytest-benchmark timing of the paper's chosen block size."""
    cg = compress_graph(crawl, 64)
    rng = ensure_rng(SEED)
    degrees = crawl.degrees()
    eligible = np.flatnonzero(degrees > 0)
    vertices = rng.choice(eligible, size=1000)
    indices = (rng.integers(0, 2**31, size=1000) % degrees[vertices]).astype(np.int64)
    benchmark(lambda: cg.ith_neighbors(vertices, indices))
