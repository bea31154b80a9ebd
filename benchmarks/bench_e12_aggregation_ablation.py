"""E12 — §4.2 design choice: aggregation-strategy comparison.

The paper considered (1) per-processor lists merged by a sparse histogram
(semisort) and (2) a single shared sparse parallel hash table, and found the
hash table "fastest and most memory-efficient ... across all of our inputs".

We compare our implementations (dict reference, the sort-reduce kernel that
is the pipeline's default, per-processor-lists histogram, shared hash table,
and the hash-partitioned per-processor tables) on a realistic *per-draw*
sample stream — what one slab of the PathSampling stage holds before it packs
and reduces (``per_draw_samples``; the stage's own output is already
distinct, on which every aggregator is the identity) — reporting throughput
and the memory each needs.  The hash variants are kept for this ablation: in
numpy they lose to the sort kernel (see EXPERIMENTS.md E12).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import SEED, load
from repro.sparsifier.aggregation import (
    aggregate_dict,
    aggregate_hash,
    aggregate_hash_sharded,
    aggregate_histogram,
    aggregate_sort,
)
from repro.sparsifier.hashtable import SparseParallelHashTable
from repro.sparsifier.path_sampling import PathSamplingConfig, per_draw_samples
from repro.systems.memory import hash_table_bytes, per_thread_list_bytes

WINDOW = 10


@pytest.fixture(scope="module")
def sample_stream():
    graph = load("oag_like").graph
    config = PathSamplingConfig(
        window=WINDOW,
        num_samples=PathSamplingConfig.samples_for_multiplier(graph, WINDOW, 5.0),
        downsample=True,
    )
    u, v, w, _ = per_draw_samples(graph, config, SEED)
    return graph.num_vertices, u, v, w


@pytest.mark.parametrize(
    "name,aggregate",
    [
        ("dict", aggregate_dict),
        ("sort", aggregate_sort),
        ("histogram", aggregate_histogram),
        ("hash", aggregate_hash),
        ("hash-sharded", aggregate_hash_sharded),
    ],
)
def test_e12_aggregation_throughput(benchmark, name, aggregate, sample_stream):
    n, u, v, w = sample_stream
    benchmark.group = "aggregation"
    rows, cols, vals = benchmark(lambda: aggregate(u, v, w, n))
    assert rows.size == cols.size == vals.size > 0


def test_e12_sharded_peak_memory(benchmark, table):
    """Shared table vs per-processor tables: the §4.2 memory argument.

    Shards partition the key space, so their items concatenate without a
    merge table; what the sharded path pays over the shared table is the
    power-of-two rounding of every shard's slot array."""
    graph = load("oag_like").graph
    config = PathSamplingConfig(
        window=WINDOW,
        num_samples=PathSamplingConfig.samples_for_multiplier(graph, WINDOW, 5.0),
        downsample=True,
    )
    u, v, w, _ = per_draw_samples(graph, config, SEED)

    def run():
        rows = []
        shared_stats = {}
        aggregate_hash(u, v, w, graph.num_vertices, stats=shared_stats)
        rows.append(
            {
                "strategy": "hash (shared)",
                "distinct": int(shared_stats["distinct"]),
                "peak_table_bytes": int(shared_stats["peak_table_bytes"]),
            }
        )
        for shards in (2, 4, 8):
            stats = {}
            aggregate_hash_sharded(
                u, v, w, graph.num_vertices, num_shards=shards, stats=stats
            )
            rows.append(
                {
                    "strategy": f"hash-sharded x{shards}",
                    "distinct": int(stats["distinct"]),
                    "peak_table_bytes": int(stats["peak_table_bytes"]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(
        "E12 / §4.2 — shared hash vs per-processor tables: the sharded "
        "variant's footprint is the sum of its shard tables "
        "(paper: shared table is most memory-efficient)",
        rows,
    )
    assert all(r["distinct"] == rows[0]["distinct"] for r in rows)
    assert all(
        r["peak_table_bytes"] >= rows[0]["peak_table_bytes"] for r in rows[1:]
    )


def test_e12_memory_scaling(benchmark, table):
    """Memory scaling with the sample budget M.

    NetSMF-style per-thread lists buffer every sample (linear in M); the
    shared hash's footprint tracks *distinct* entries, which saturate as M
    grows (duplicates collapse).  At the paper's scale (M up to 20Tm on
    billion-edge graphs) the hash wins outright; at our scale the reproduced
    shape is the widening list/hash ratio as M grows.
    """
    graph = load("oag_like").graph

    def run():
        rows = []
        for multiplier in (5.0, 20.0, 50.0):
            config = PathSamplingConfig(
                window=WINDOW,
                num_samples=PathSamplingConfig.samples_for_multiplier(
                    graph, WINDOW, multiplier
                ),
                downsample=True,
            )
            u, v, w, _ = per_draw_samples(graph, config, SEED)
            _, _, vals = aggregate_sort(u, v, w, graph.num_vertices)
            list_bytes = per_thread_list_bytes(u.size)
            hash_bytes = hash_table_bytes(vals.size)
            rows.append(
                {
                    "M": f"{multiplier:g}Tm",
                    "samples": int(u.size),
                    "distinct": int(vals.size),
                    "dup_factor": round(u.size / vals.size, 2),
                    "list_bytes": list_bytes,
                    "hash_bytes": hash_bytes,
                    "list/hash": round(list_bytes / hash_bytes, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(
        "E12 / §4.2 — aggregation memory scaling: buffered samples grow "
        "linearly in M, the shared hash saturates with distinct entries "
        "(paper: hash is most memory-efficient at scale)",
        rows,
    )
    ratios = [r["list/hash"] for r in rows]
    assert ratios == sorted(ratios), "hash advantage must widen with M"
    dups = [r["dup_factor"] for r in rows]
    assert dups == sorted(dups), "duplication grows with M"


# --------------------------------------------------------------------------
# Ingest peak memory (PR 6 satellite): read_edge_list streams lines through
# fixed-size preallocated numpy chunks; the naive reader it replaced
# accumulated Python int objects in growing lists (≈28 bytes per boxed int
# plus 8 bytes of list slot, vs 8 bytes per int64 slot).  Each reader runs
# in a fresh interpreter (high-water marks never shrink in-process) over the
# same ~1.2M-edge file and must build the identical graph.

_INGEST_PROBE = """
import json
import numpy as np
from repro.graph.builders import from_edges
from repro.graph.io import read_edge_list
from repro.telemetry.memory import MemorySampler
path = __PATH__
with MemorySampler(0.005) as sampler:
    if __NAIVE__:
        # The pre-fix reader: boxed-int accumulation, arrays at the end.
        us, vs = [], []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                us.append(int(parts[0]))
                vs.append(int(parts[1]))
        graph = from_edges(
            np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            symmetrize=True,
        )
    else:
        graph = read_edge_list(path)
p = sampler.profile
print(json.dumps(dict(anon=p.anon_peak_bytes, rss=p.rss_peak_bytes,
                      n=graph.num_vertices, m=graph.num_edges,
                      checksum=int(graph.targets.sum()))))
"""


def test_e12_ingest_peak_memory(table, tmp_path):
    from benchmarks.harness import run_probe

    rng = np.random.default_rng(SEED)
    num_edges = 1_200_000
    u = rng.integers(0, 100_000, size=num_edges)
    v = rng.integers(0, 100_000, size=num_edges)
    keep = u != v
    path = tmp_path / "edges.txt"
    np.savetxt(path, np.column_stack([u[keep], v[keep]]), fmt="%d")

    def probe(naive):
        script = (
            _INGEST_PROBE
            .replace("__PATH__", repr(str(path)))
            .replace("__NAIVE__", "True" if naive else "False")
        )
        return run_probe(script)

    naive = probe(naive=True)
    chunked = probe(naive=False)

    table(
        "E12 — edge-list ingest peak memory, ~1.2M edges (fresh process "
        "per row): chunked preallocated parsing vs boxed-int lists",
        [
            {"reader": name, "anon_peak_MiB": round(r["anon"] / 2**20, 1)
             if r["anon"] is not None else None,
             "rss_peak_MiB": round(r["rss"] / 2**20, 1)
             if r["rss"] is not None else None,
             "n": r["n"], "m": r["m"]}
            for name, r in (("naive-lists", naive), ("chunked", chunked))
        ],
    )

    # Same file, same graph.
    assert (naive["n"], naive["m"], naive["checksum"]) == (
        chunked["n"], chunked["m"], chunked["checksum"]
    )
    if naive["anon"] is None or chunked["anon"] is None:
        pytest.skip("no /proc/self/status on this platform")
    assert chunked["anon"] < naive["anon"], (
        f"chunked reader anon peak {chunked['anon']} not below naive "
        f"{naive['anon']}"
    )
