"""E6 — §5.2.4 ablation: what makes the larger sample budget affordable.

The paper attributes LightNE's 20Tm budget (vs NetSMF's 8Tm under the same
1.5 TB) to the shared hash table (+56.3% affordable samples) and the
downsampling (+60% on top).  We reproduce both effects:

1. measured: downsampling shrinks the number of sparsifier entries a given
   sample budget produces (so a bigger budget fits in the same table);
2. modeled: the §5.2.4 "how many samples fit" arithmetic at 1.5 TB with the
   shared-hash vs per-thread-list strategies.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import SEED, load
from repro.sparsifier.builder import build_sparsifier
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.systems.memory import (
    MemoryBudget,
    csr_bytes,
    hash_table_bytes,
    max_affordable_samples,
    per_thread_list_bytes,
)

WINDOW = 10


@pytest.fixture(scope="module")
def oag_graph():
    return load("oag_like").graph


def test_e6_downsampling_entry_reduction(benchmark, table, oag_graph):
    def run():
        rows = []
        num_samples = PathSamplingConfig.samples_for_multiplier(
            oag_graph, WINDOW, 5.0
        )
        for downsample in (False, True):
            config = PathSamplingConfig(
                window=WINDOW, num_samples=num_samples, downsample=downsample
            )
            result = build_sparsifier(oag_graph, config, SEED)
            rows.append(
                {
                    "downsampling": "on" if downsample else "off",
                    "draws": result.num_draws,
                    "sparsifier_nnz": result.nnz,
                    "table_bytes": hash_table_bytes(result.nnz),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(
        "E6 / §5.2.4 — downsampling's effect on sparsifier entries "
        "(paper: +60% affordable samples)",
        rows,
    )
    off, on = rows
    assert on["sparsifier_nnz"] < off["sparsifier_nnz"]
    assert on["table_bytes"] <= off["table_bytes"]


def test_e6_memory_budget_model(benchmark, table, oag_graph):
    """Replay the paper's 1.5 TB affordability arithmetic with our model."""
    def run():
        budget = MemoryBudget.from_gib(1536)  # the paper's machine
        # Scale the real OAG's CSR footprint (paper: 16 GB uncompressed).
        graph_bytes = 16 * (1 << 30)
        hash_samples = max_affordable_samples(
            budget, graph_bytes, strategy="shared_hash", distinct_ratio=0.3
        )
        list_samples = max_affordable_samples(
            budget, graph_bytes, strategy="thread_lists"
        )
        return [
            {
                "strategy": "per-thread lists (NetSMF)",
                "affordable_samples": list_samples,
            },
            {
                "strategy": "shared hash (LightNE)",
                "affordable_samples": hash_samples,
                "gain": f"{hash_samples / list_samples:.2f}x",
            },
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(
        "E6 / §5.2.4 — modeled affordable samples at 1.5 TB "
        "(paper: hash +56.3%, downsampling +60% more)",
        rows,
    )
    assert rows[1]["affordable_samples"] > rows[0]["affordable_samples"]


def test_e6_downsampling_quality_negligible(benchmark, table, oag_graph):
    """§3.2: 'this downsampling has negligible effects on the qualities'."""
    from benchmarks.harness import classification_row, embed

    oag = load("oag_like")

    def run():
        rows = []
        for downsample in (False, True):
            result = embed(
                "lightne", oag.graph, dimension=32, window=WINDOW,
                multiplier=5.0, downsample=downsample,
            )
            row = {"downsampling": "on" if downsample else "off",
                   "nnz": int(result.timer.get_counter("sparsifier", "distinct"))}
            row.update(
                classification_row(result.vectors, oag.labels, (0.1,), repeats=2)
            )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table("E6 / §3.2 — quality with downsampling on vs off", rows)
    off, on = rows
    assert on["micro@0.1"] >= off["micro@0.1"] - 3.0
