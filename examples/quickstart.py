#!/usr/bin/env python
"""Quickstart: embed a graph with LightNE and inspect the result.

Builds a small community graph, runs the full LightNE pipeline (downsampled
PathSampling sparsifier → randomized SVD → spectral propagation), and prints
the stage timing breakdown plus a quick node-classification score.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import LightNEParams, dcsbm_graph, lightne_embedding
from repro.eval import evaluate_node_classification


def main() -> None:
    # 1. A graph.  Any CSRGraph works — from repro.graph.io.read_edge_list,
    #    from_edges, from_scipy, or a synthetic generator.
    graph, labels = dcsbm_graph(
        n=1_000,
        num_communities=8,
        avg_degree=15,
        mixing=0.15,
        labels_per_node=2,
        seed=7,
    )
    print(f"graph: {graph}")

    # 2. Configure LightNE.  `sample_multiplier` trades time for quality
    #    (paper Figure 2): 0.1 = LightNE-Small, 20 = LightNE-Large.
    params = LightNEParams(
        dimension=64,
        window=10,            # the DeepWalk context window T
        sample_multiplier=5,  # M = 5 * T * m PathSampling draws
    )

    # 3. Embed.
    result = lightne_embedding(graph, params, seed=0)
    print(f"\nembedding: {result.vectors.shape}, method={result.method}")
    sparsifier = result.timer.counters["sparsifier"]
    print(f"sparsifier: {int(sparsifier['distinct'])} non-zeros "
          f"from {int(sparsifier['draws'])} samples")
    print("\nstage breakdown (paper Table 5 style):")
    print(result.timer.format())

    # 4. Use it: multi-label node classification at a 10% training ratio.
    score = evaluate_node_classification(
        result.vectors, labels, train_ratio=0.1, repeats=3, seed=1
    )
    print(f"\nnode classification @10% labels: "
          f"micro-F1={100 * score.micro_f1:.1f} "
          f"macro-F1={100 * score.macro_f1:.1f}")


if __name__ == "__main__":
    main()
