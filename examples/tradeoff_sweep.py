#!/usr/bin/env python
"""Reproduce the Figure-2 efficiency–effectiveness trade-off interactively.

Sweeps LightNE's sample budget M from 0.1Tm to 20Tm on a labeled synthetic
graph and prints the (time, Micro-F1) curve, plus the two anchor baselines
from the paper's figure: ProNE+ (fast, lower quality ceiling) and NetSMF
(slow at large budgets, no propagation).

Run:  python examples/tradeoff_sweep.py
"""

from __future__ import annotations

from repro import (
    LightNEParams,
    ProNEParams,
    dcsbm_graph,
    lightne_embedding,
    netsmf_embedding,
    prone_embedding,
)
from repro.eval import evaluate_node_classification

RATIO = 0.1
WINDOW = 10


def f1(vectors, labels) -> float:
    score = evaluate_node_classification(vectors, labels, RATIO, repeats=3, seed=1)
    return 100 * score.micro_f1


def main() -> None:
    graph, labels = dcsbm_graph(2_000, 10, avg_degree=14, mixing=0.2,
                                labels_per_node=2, seed=5)
    print(f"graph: {graph}\n")
    print(f"{'config':<18} {'time (s)':>9} {'micro-F1 @10%':>14}")
    print("-" * 45)

    for multiplier in (0.1, 0.5, 1, 2, 5, 10, 20):
        result = lightne_embedding(
            graph,
            LightNEParams(dimension=64, window=WINDOW, sample_multiplier=multiplier),
            seed=0,
        )
        print(f"{'LightNE ' + format(multiplier, 'g') + 'Tm':<18} "
              f"{result.total_seconds:>9.2f} {f1(result.vectors, labels):>14.2f}")

    prone = prone_embedding(graph, ProNEParams(dimension=64), seed=0)
    print(f"{'ProNE+':<18} {prone.total_seconds:>9.2f} "
          f"{f1(prone.vectors, labels):>14.2f}")

    netsmf = netsmf_embedding(
        graph, LightNEParams(dimension=64, window=WINDOW, sample_multiplier=8), seed=0
    )
    print(f"{'NetSMF 8Tm':<18} {netsmf.total_seconds:>9.2f} "
          f"{f1(netsmf.vectors, labels):>14.2f}")

    print(
        "\nReading the curve: every LightNE point trades time for quality; "
        "the paper's claim is that for any ProNE+/NetSMF point there is a "
        "LightNE point above-and-left of it (Pareto dominance)."
    )


if __name__ == "__main__":
    main()
