"""Fundamental graph algorithms on the CSR substrate.

GBBS [5] — the stack LightNE builds on — is "a graph based benchmark suite"
of exactly these algorithms, demonstrated to scale to the same
hundred-billion-edge graphs LightNE targets.  We provide the subset the
embedding pipeline and its evaluation touch (plus the classic frontier-based
BFS that defines the Ligra processing model):

* :func:`bfs` — frontier-based breadth-first search (Ligra's edgeMap model);
* :func:`connected_components` — label-propagation components;
* :func:`pagerank` — power iteration with teleport;
* :func:`triangle_count` — exact triangle counting by neighborhood merge;
* :func:`kcore_decomposition` — peeling, the standard GBBS benchmark.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph

UNREACHED = -1


def bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Breadth-first search distances from ``source``.

    Implements the Ligra model: a frontier of vertices expands by mapping
    over its out-edges each round (vectorized here with CSR gathers).
    Unreached vertices get distance ``-1``.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphConstructionError(f"source {source} out of range [0, {n})")
    distances = np.full(n, UNREACHED, dtype=np.int64)
    distances[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        # Gather all neighbors of the frontier (the edgeMap).
        degrees = graph.degrees()[frontier]
        total = int(degrees.sum())
        if total == 0:
            break
        starts = graph.offsets[frontier]
        index = _expand_ranges(starts, degrees)
        neighbors = graph.targets[index]
        fresh = np.unique(neighbors[distances[neighbors] == UNREACHED])
        distances[fresh] = level
        frontier = fresh
    return distances


def _expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[start, start+len)`` ranges into one index array."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Difference trick: ones everywhere, jumps at each range boundary.
    out_starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_starts[1:])
    result = np.ones(total, dtype=np.int64)
    result[0] = starts[0]
    if lengths.size > 1:
        result[out_starts[1:]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(result)


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Connected-component labels via synchronous label propagation.

    Each vertex repeatedly adopts the minimum label in its closed
    neighborhood; converges in O(diameter) vectorized rounds.  Labels are
    the minimum vertex id of each component.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if graph.num_directed_edges == 0:
        return labels
    src, dst = graph.edge_endpoints()
    while True:
        gathered = labels.copy()
        np.minimum.at(gathered, dst, labels[src])
        np.minimum.at(gathered, src, labels[dst])
        if np.array_equal(gathered, labels):
            return labels
        labels = gathered


def pagerank(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """PageRank by power iteration (dangling mass redistributed uniformly)."""
    if not 0.0 < damping < 1.0:
        raise GraphConstructionError(f"damping must be in (0, 1), got {damping}")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0)
    adjacency = graph.adjacency()
    degrees = graph.weighted_degrees()
    with np.errstate(divide="ignore"):
        inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        dangling = rank[degrees == 0].sum()
        spread = adjacency.T @ (rank * inv)
        new_rank = teleport + damping * (spread + dangling / n)
        if np.abs(new_rank - rank).sum() < tol:
            return new_rank
        rank = new_rank
    return rank


def triangle_count(graph: CSRGraph) -> int:
    """Exact global triangle count via sorted-neighborhood intersection.

    Uses the standard degree-ordered orientation so each triangle is
    counted exactly once.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    # Rank vertices by (degree, id); orient edges low -> high rank.
    rank = np.lexsort((np.arange(n), degrees))
    position = np.empty(n, dtype=np.int64)
    position[rank] = np.arange(n)

    forward = [
        graph.neighbors(u)[position[graph.neighbors(u)] > position[u]]
        for u in range(n)
    ]
    count = 0
    for u in range(n):
        fu = forward[u]
        for v in fu:
            count += np.intersect1d(fu, forward[v], assume_unique=True).size
    return int(count)


def kcore_decomposition(graph: CSRGraph) -> np.ndarray:
    """Core numbers by iterative peeling (the GBBS k-core benchmark)."""
    n = graph.num_vertices
    degrees = graph.degrees().copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    k = 0
    remaining = n
    while remaining:
        k = max(k, int(degrees[alive].min()))
        peel = np.flatnonzero(alive & (degrees <= k))
        while peel.size:
            core[peel] = k
            alive[peel] = False
            remaining -= peel.size
            # Decrement neighbors' degrees.
            for u in peel:
                nbrs = graph.neighbors(int(u))
                live = nbrs[alive[nbrs]]
                degrees[live] -= 1
            peel = np.flatnonzero(alive & (degrees <= k))
    return core


def diameter_lower_bound(graph: CSRGraph, probes: int = 4, seed: int = 0) -> int:
    """Double-sweep lower bound on the diameter (cheap, standard trick)."""
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    start = int(rng.integers(n))
    for _ in range(max(1, probes)):
        dist = bfs(graph, start)
        reached = dist >= 0
        if not reached.any():
            break
        far = int(np.argmax(np.where(reached, dist, -1)))
        best = max(best, int(dist[far]))
        start = far
    return best
