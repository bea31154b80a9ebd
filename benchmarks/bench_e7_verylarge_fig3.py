"""E7 — Figure 3: HITS@K vs number of samples on the very large graphs.

The paper trains LightNE on ClueWeb-Sym and Hyperlink2014-Sym with T=2,
d=32, *no* spectral propagation (memory), sweeping the sample budget M up to
the 1.5 TB wall, and shows HITS@{1,10,50} growing with M.

Expected *shape*: on both web-crawl analogs, each HITS@K series is
(noisily) increasing in M, and HITS@50 > HITS@10 > HITS@1 pointwise.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, embed, load
from repro.eval import evaluate_link_prediction, train_test_split_edges

MULTIPLIERS = (0.25, 1.0, 4.0)
WINDOW = 2  # the paper's very-large-graph setting
DIMENSION = 32


def _sweep(name):
    graph = load(name).graph
    train, pos_u, pos_v = train_test_split_edges(graph, 0.005, seed=SEED)
    rows = []
    for multiplier in MULTIPLIERS:
        result = embed(
            "lightne", train, dimension=DIMENSION, window=WINDOW,
            multiplier=multiplier, propagate=False,
        )
        metrics = evaluate_link_prediction(
            result.vectors, pos_u, pos_v, num_negatives=200, ks=(1, 10, 50),
            seed=SEED,
        )
        rows.append(
            {
                "M": f"{multiplier:g}Tm",
                "samples": int(result.timer.get_counter("sparsifier", "draws")),
                "time_s": round(result.total_seconds, 2),
                "HITS@1": round(100 * metrics.hits[1], 2),
                "HITS@10": round(100 * metrics.hits[10], 2),
                "HITS@50": round(100 * metrics.hits[50], 2),
            }
        )
    return rows


def _check(rows):
    for row in rows:
        assert row["HITS@1"] <= row["HITS@10"] <= row["HITS@50"]
    # Growth with samples: the largest budget beats the smallest at HITS@50.
    assert rows[-1]["HITS@50"] >= rows[0]["HITS@50"] - 2.0
    assert rows[-1]["HITS@10"] >= rows[0]["HITS@10"] - 2.0


def test_e7_clueweb(benchmark, table):
    rows = benchmark.pedantic(lambda: _sweep("clueweb_like"), rounds=1, iterations=1)
    table(
        "E7 / Figure 3a — HITS@K vs #samples on clueweb_like "
        "(paper: all three curves grow with M)",
        rows,
    )
    _check(rows)


def test_e7_hyperlink2014(benchmark, table):
    rows = benchmark.pedantic(
        lambda: _sweep("hyperlink2014_like"), rounds=1, iterations=1
    )
    table(
        "E7 / Figure 3b — HITS@K vs #samples on hyperlink2014_like "
        "(paper: all three curves grow with M)",
        rows,
    )
    _check(rows)
