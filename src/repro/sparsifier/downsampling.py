"""Degree-based edge downsampling (paper Section 3.2, Theorems 3.1–3.2).

LightNE's headline algorithmic contribution: instead of keeping every
PathSampling draw, each draw seeded at edge ``e = (u, v)`` survives a coin
flip with probability

    p_e = min(1, C · A_uv · (1/d_u + 1/d_v)),        C = log n by default,

and surviving samples are re-weighted by ``1/p_e``.  The quantity
``1/d_u + 1/d_v`` is Lovász's upper bound on the effective resistance
``R_uv`` (Theorem 3.2), so this is importance sampling with leverage-score
upper bounds: the expected Laplacian of the downsampled graph equals the
original (Theorem 3.1 — property-tested in ``tests/sparsifier``), and the
expected number of kept edges is ``O(n·C)`` because
``Σ_v A_uv/d_u = 1`` per vertex.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph


def default_constant(num_vertices: int) -> float:
    """The paper's choice ``C = log n`` (natural log, floored at 1)."""
    return max(1.0, float(np.log(max(num_vertices, 2))))


def downsampling_probabilities(
    sources: np.ndarray,
    targets: np.ndarray,
    degrees: np.ndarray,
    *,
    constant: Optional[float] = None,
    edge_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-edge keep probabilities ``p_e`` for the given endpoint arrays.

    Parameters
    ----------
    sources, targets:
        Edge endpoints (parallel arrays).
    degrees:
        Weighted degree of every vertex (``d_u = Σ_v A_uv``).
    constant:
        The oversampling constant ``C``; defaults to ``log n``.
    edge_weights:
        ``A_uv`` per edge; 1 when omitted (unweighted graphs).
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.float64)
    if sources.shape != targets.shape:
        raise SamplingError("sources/targets must be parallel arrays")
    if constant is None:
        constant = default_constant(degrees.size)
    if constant <= 0:
        raise SamplingError(f"constant must be positive, got {constant}")
    d_u = degrees[sources]
    d_v = degrees[targets]
    if np.any(d_u <= 0) or np.any(d_v <= 0):
        raise SamplingError("downsampling requires positive endpoint degrees")
    weights = (
        np.ones(sources.size)
        if edge_weights is None
        else np.asarray(edge_weights, dtype=np.float64)
    )
    resistance_bound = 1.0 / d_u + 1.0 / d_v
    return np.minimum(1.0, constant * weights * resistance_bound)


def graph_downsampling_probabilities(
    graph: CSRGraph, *, constant: Optional[float] = None
) -> np.ndarray:
    """``p_e`` for every undirected edge of ``graph`` (``u < v`` order)."""
    src, dst = graph.edge_endpoints()
    mask = src < dst
    wts = graph.weights[mask] if graph.weights is not None else None
    return downsampling_probabilities(
        src[mask],
        dst[mask],
        graph.weighted_degrees(),
        constant=constant,
        edge_weights=wts,
    )


def expected_kept_edges(graph: CSRGraph, *, constant: Optional[float] = None) -> float:
    """Expected number of surviving input edges, ``Σ_e p_e`` — the
    ``O(n log n)`` bound the paper advertises."""
    return float(graph_downsampling_probabilities(graph, constant=constant).sum())


def downsample_graph_laplacian_sample(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    constant: Optional[float] = None,
):
    """Draw one downsampled graph ``H`` and return ``(src, dst, weights)``.

    Kept edges carry weight ``A_uv / p_e`` so that ``E[L_H] = L_G``
    (Theorem 3.1).  Used by the unbiasedness property tests and E6.
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
