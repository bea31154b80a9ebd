"""Draws of the degree-downsampled graph ``H`` for the Theorem 3.1 tests.

The library applies the downsampling coin to PathSampling draws, never to the
input graph; these helpers apply it to the graph's own edges so the tests can
check the theorem's claims directly:

* :func:`expected_kept_edges` — ``Σ_e p_e``, the ``O(n log n)`` bound the
  paper advertises;
* :func:`downsample_graph_laplacian_sample` — one draw of ``H`` with kept
  edges re-weighted by ``A_uv / p_e``, so that ``E[L_H] = L_G``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sparsifier.downsampling import (
    downsampling_probabilities,
    graph_downsampling_probabilities,
)


def expected_kept_edges(graph: CSRGraph, *, constant: Optional[float] = None) -> float:
    """Expected number of surviving input edges, ``Σ_e p_e``."""
    return float(graph_downsampling_probabilities(graph, constant=constant).sum())


def downsample_graph_laplacian_sample(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    constant: Optional[float] = None,
):
    """Draw one downsampled graph ``H`` and return ``(src, dst, weights)``.

    Kept edges carry weight ``A_uv / p_e`` so that ``E[L_H] = L_G``
    (Theorem 3.1).
    """
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    base_w = graph.weights[mask] if graph.weights is not None else np.ones(src.size)
    probs = downsampling_probabilities(
        src, dst, graph.weighted_degrees(), constant=constant, edge_weights=base_w
    )
    keep = rng.random(src.size) < probs
    return src[keep], dst[keep], base_w[keep] / probs[keep]
