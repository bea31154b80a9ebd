"""Synthetic graph generators used as dataset stand-ins.

The paper evaluates on proprietary or hundred-billion-edge public crawls
(Table 3) that cannot be shipped or fit here.  The experiments only need
graphs exhibiting the properties the algorithms exploit — sparsity, power-law
degrees, community structure with (multi-)labels, and reasonable expansion —
so we generate:

* :func:`dcsbm_graph` — degree-corrected stochastic block model: power-law
  degree propensities plus planted communities; the workhorse behind every
  ``*_like`` dataset (labels come from the planted communities).
* :func:`rmat_graph` — Kronecker/R-MAT graphs for scalability-shaped runs
  (skewed, scale-free, no labels) standing in for web crawls.
* :func:`erdos_renyi_graph` — the classic baseline for tests and ablations.

All generators return simple undirected :class:`CSRGraph` objects (self loops
and duplicates removed).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng


def erdos_renyi_graph(n: int, p: float, seed: SeedLike = None) -> CSRGraph:
    """G(n, p) random graph (dense sampling; intended for small ``n``)."""
    if n <= 0:
        raise GraphConstructionError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphConstructionError(f"p must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    src, dst = np.nonzero(upper)
    return from_edges(src, dst, num_vertices=n)


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
) -> CSRGraph:
    """R-MAT (recursive matrix) graph with ``2**scale`` vertices.

    The default ``(a, b, c)`` parameters are the Graph500 values, producing
    heavily skewed web-crawl-like degree distributions.  ``edge_factor``
    directed edges per vertex are drawn (duplicates and self loops removed, so
    the realized ``m`` is somewhat smaller).
    """
    if scale <= 0 or scale > 28:
        raise GraphConstructionError(f"scale must be in [1, 28], got {scale}")
    if edge_factor <= 0:
        raise GraphConstructionError(f"edge_factor must be positive, got {edge_factor}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise GraphConstructionError("RMAT probabilities must be a non-negative "
                                     f"distribution, got a={a}, b={b}, c={c}")
    rng = ensure_rng(seed)
    n = 1 << scale
    num_edges = n * edge_factor
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_edges)
        src <<= 1
        dst <<= 1
        # Quadrant choice: a (0,0), b (0,1), c (1,0), d (1,1).
        go_b = (r >= a) & (r < a + b)
        go_c = (r >= a + b) & (r < a + b + c)
        go_d = r >= a + b + c
        dst += (go_b | go_d).astype(np.int64)
        src += (go_c | go_d).astype(np.int64)
    return from_edges(src, dst, num_vertices=n)


def _powerlaw_propensities(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized Pareto-tail degree propensities with exponent ``exponent``."""
    raw = (1.0 - rng.random(n)) ** (-1.0 / (exponent - 1.0))
    raw = np.minimum(raw, np.sqrt(n))  # cap hubs so expected probs stay < 1
    return raw / raw.sum()


def dcsbm_graph(
    n: int,
    num_communities: int,
    avg_degree: float = 10.0,
    *,
    mixing: float = 0.15,
    power_exponent: float = 2.5,
    labels_per_node: int = 1,
    seed: SeedLike = None,
) -> Tuple[CSRGraph, np.ndarray]:
    """Degree-corrected SBM with power-law degrees and multi-label output.

    Parameters
    ----------
    n, num_communities, avg_degree:
        Graph size, number of planted communities, expected mean degree.
    mixing:
        Fraction of edge mass that ignores communities (0 = pure blocks,
        1 = configuration model).  Controls classification difficulty.
    power_exponent:
        Degree-propensity power-law exponent (2.5 matches social networks).
    labels_per_node:
        Each node carries its home community plus up to
        ``labels_per_node - 1`` secondary community labels, enabling the
        multi-label classification protocol of BlogCatalog/YouTube/OAG.
    seed:
        RNG seed.

    Returns
    -------
    (graph, labels):
        ``labels`` is an ``(n, num_communities)`` boolean membership matrix.
    """
    if n <= 0 or num_communities <= 0:
        raise GraphConstructionError("n and num_communities must be positive")
    if num_communities > n:
        raise GraphConstructionError("more communities than vertices")
    if not 0.0 <= mixing <= 1.0:
        raise GraphConstructionError(f"mixing must be in [0, 1], got {mixing}")
    if labels_per_node < 1:
        raise GraphConstructionError("labels_per_node must be >= 1")
    rng = ensure_rng(seed)

    communities = rng.integers(num_communities, size=n)
    # Guarantee every community is non-empty so macro-F1 is well defined.
    communities[:num_communities] = np.arange(num_communities)
    propensity = _powerlaw_propensities(n, power_exponent, rng)

    target_edges = int(n * avg_degree / 2)
    within_edges = int(round(target_edges * (1.0 - mixing)))
    between_edges = target_edges - within_edges

    sources = []
    targets = []
    # Within-community edge mass: sample endpoints by propensity inside the
    # same community (a chunked rejection-free scheme per community).
    community_ids, community_counts = np.unique(communities, return_counts=True)
    community_share = np.zeros(num_communities)
    for cid in community_ids:
        members = np.flatnonzero(communities == cid)
        community_share[cid] = propensity[members].sum()
    community_share = community_share / community_share.sum()
    per_community = rng.multinomial(within_edges, community_share)
    for cid in community_ids:
        count = per_community[cid]
        if count == 0:
            continue
        members = np.flatnonzero(communities == cid)
        weights = propensity[members]
        weights = weights / weights.sum()
        s = rng.choice(members, size=count, p=weights)
        t = rng.choice(members, size=count, p=weights)
        sources.append(s)
        targets.append(t)
    # Between/mixing edge mass: configuration-model endpoints.
    if between_edges > 0:
        s = rng.choice(n, size=between_edges, p=propensity)
        t = rng.choice(n, size=between_edges, p=propensity)
        sources.append(s)
        targets.append(t)

    src = np.concatenate(sources) if sources else np.empty(0, dtype=np.int64)
    dst = np.concatenate(targets) if targets else np.empty(0, dtype=np.int64)
    graph = from_edges(src, dst, num_vertices=n)

    labels = np.zeros((n, num_communities), dtype=bool)
    labels[np.arange(n), communities] = True
    if labels_per_node > 1:
        extra = rng.integers(labels_per_node, size=n)  # 0..labels_per_node-1
        for node in np.flatnonzero(extra > 0):
            others = rng.choice(num_communities, size=int(extra[node]), replace=False)
            labels[node, others] = True
    return graph, labels

