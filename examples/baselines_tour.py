#!/usr/bin/env python
"""A tour of every embedding method in the library on one labeled graph.

Runs every method the paper measures — the matrix-factorization family
(exact NetMF, NetSMF, ProNE+, LightNE, NRP) plus the SGD systems
(DeepWalk as the GraphVite stand-in, PBG) — and prints a Figure-4-style
comparison: wall-clock, Azure-model cost, and Micro/Macro F1 at a 10%
training ratio.

Every method is dispatched through the declarative registry
(`repro.embedding.registry`): the method list below is `list_methods()`
itself, per-method overrides are plain dicts validated by `make_params`,
and adding a method to the registry adds it to this tour automatically.

Run:  python examples/baselines_tour.py
"""

from __future__ import annotations

from repro import dcsbm_graph
from repro.embedding.registry import list_methods, run_method
from repro.eval import evaluate_node_classification
from repro.systems.cost import estimate_cost

DIM = 32
WINDOW = 5

# Per-method overrides on top of {"dimension": DIM}; everything else keeps
# the registry defaults.  Keys are canonical registry names.
OVERRIDES = {
    "netmf": {"window": WINDOW},
    "netsmf": {"window": WINDOW, "multiplier": 5},
    "lightne": {"window": WINDOW, "multiplier": 5},
}


def main() -> None:
    graph, labels = dcsbm_graph(
        1_000, 8, avg_degree=14, mixing=0.2, labels_per_node=2, seed=13
    )
    print(f"graph: {graph}, {labels.shape[1]} labels\n")

    print(f"{'method':<15} {'time (s)':>9} {'cost ($)':>10} "
          f"{'micro-F1':>9} {'macro-F1':>9}")
    print("-" * 56)
    for spec in list_methods():
        overrides = {"dimension": DIM, **OVERRIDES.get(spec.name, {})}
        result = run_method(spec.name, graph, seed=0, **overrides)
        score = evaluate_node_classification(
            result.vectors, labels, 0.1, repeats=3, seed=1
        )
        cost = estimate_cost(result.method, result.total_seconds)
        print(
            f"{spec.name:<15} {result.total_seconds:>9.2f} {cost:>10.6f} "
            f"{100 * score.micro_f1:>9.2f} {100 * score.macro_f1:>9.2f}"
        )

    print(
        "\nThe paper's story in one table: the matrix-factorization family "
        "(and LightNE in particular) reaches the best quality orders of "
        "magnitude faster than SGD training."
    )


if __name__ == "__main__":
    main()
