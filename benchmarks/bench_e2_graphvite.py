"""E2 — §5.2.2 tables: GraphVite (DeepWalk-SGD stand-in) vs LightNE.

Paper's rows: Micro-F1 at 1/5/10% label ratio on Friendster-small and
Friendster (LightNE +5-8 points), AUC on Hyperlink-PLD (96.7 vs 94.3), and
11-32x speedups / 22-25x cost savings.

Expected *shape* at our scale: LightNE at least matches the SGD system's
F1/AUC at a fraction of its runtime and cost.  (Label ratios are scaled up
from 1/5/10% to keep the training splits non-degenerate on the small
analogs; the sweep's ordering is what carries the claim.)
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, auc_row, classification_row, embed, load
from repro.experiments.runner import cost_of

RATIOS = (0.01, 0.05, 0.10)


def _f1_comparison(dataset_name, table_fn, benchmark):
    bundle = load(dataset_name)
    rows = []

    def run():
        for method in ("graphvite", "lightne"):
            result = embed(
                method, bundle.graph, dimension=32,
                window=1,  # paper's cross-validated T for the Friendster tasks
                multiplier=3.0,
            )
            row = {"method": method, "time_s": round(result.total_seconds, 3),
                   "cost_$": cost_of(method, result.total_seconds)}
            row.update(
                classification_row(result.vectors, bundle.labels, RATIOS, repeats=2)
            )
            rows.append(row)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table_fn(
        f"E2 / §5.2.2 — GraphVite-style SGD vs LightNE on {dataset_name} "
        "(paper: LightNE higher Micro-F1 at every ratio, 29-32x faster)",
        rows,
    )
    sgd, lightne = rows
    assert lightne["time_s"] < sgd["time_s"], "LightNE must be faster than SGD"
    assert lightne[f"micro@{RATIOS[-1]:g}"] >= sgd[f"micro@{RATIOS[-1]:g}"] - 2.0


def test_e2_friendster_small(benchmark, table):
    _f1_comparison("friendster_small_like", table, benchmark)


def test_e2_friendster(benchmark, table):
    _f1_comparison("friendster_like", table, benchmark)


def test_e2_hyperlink_pld_auc(benchmark, table):
    graph = load("hyperlink_pld_like").graph
    rows = benchmark.pedantic(
        lambda: [
            auc_row(graph, "graphvite", dimension=32, window=5, multiplier=2.0),
            auc_row(graph, "lightne", dimension=32, window=5, multiplier=2.0),
        ],
        rounds=1,
        iterations=1,
    )
    table(
        "E2 / §5.2.2 — link-prediction AUC on hyperlink_pld_like "
        "(paper: LightNE 96.7 vs GraphVite 94.3, 11x faster)",
        rows,
    )
    sgd, lightne = rows
    assert lightne["AUC"] >= sgd["AUC"] - 1.0
    assert lightne["time_s"] < sgd["time_s"]
