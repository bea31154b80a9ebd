"""Vectorized random walks on CSR graphs.

The paper simulates walks "one step at a time by first sampling a uniformly
random 32-bit value, and computing this value modulo the vertex degree"
(Section 4.2).  We reproduce exactly that step rule — uniform neighbor choice
via a random index modulo degree — but run *batches* of walkers in lock-step
numpy arrays, which is the Python equivalent of GBBS's bulk parallelism.

Walks on weighted graphs choose neighbors proportional to edge weight (needed
when the sparsifier pipeline is pointed at weighted inputs); the unweighted
fast path is pure integer indexing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng


def step_random_walk(
    graph: CSRGraph,
    positions: np.ndarray,
    steps: np.ndarray,
    seed: SeedLike = None,
    *,
    strategy: str = "direct",
) -> np.ndarray:
    """Advance each walker ``positions[i]`` by ``steps[i]`` uniform steps.

    Walkers stranded on isolated (degree-0) vertices stay put — the generators
    never produce them on the sampled edges, but defensive behaviour beats a
    modulo-by-zero crash.

    Parameters
    ----------
    graph:
        The graph.
    positions:
        Start vertices, modified copies returned (input untouched).
    steps:
        Per-walker step counts (non-negative).
    seed:
        RNG seed or generator.
    strategy:
        ``"direct"`` gathers neighbors in walker order (random reads);
        ``"sorted"`` groups walkers by current vertex before gathering — the
        semisort-batching locality optimization §4.2 flags as future work.
        Both strategies sample from the same law (property-tested); they
        differ only in memory-access pattern.

    Returns
    -------
    Final vertex per walker.
    """
    if strategy not in ("direct", "sorted"):
        raise SamplingError(f"unknown walk strategy {strategy!r}")
    rng = ensure_rng(seed)
    positions = np.asarray(positions, dtype=np.int64).copy()
    steps = np.asarray(steps, dtype=np.int64)
    if positions.shape != steps.shape:
        raise SamplingError("positions and steps must be parallel arrays")
    if steps.size and steps.min() < 0:
        raise SamplingError("steps must be non-negative")
    degrees = graph.degrees()
    weighted = graph.weights is not None
    max_steps = int(steps.max()) if steps.size else 0
    remaining = steps.copy()
    for _ in range(max_steps):
        active = np.flatnonzero(remaining > 0)
        if active.size == 0:
            break
        cur = positions[active]
        deg = degrees[cur]
        movable = deg > 0
        move_idx = active
        if not movable.all():  # stranded walkers: rare, so the gathers above are kept
            move_idx, cur, deg = active[movable], cur[movable], deg[movable]
        if move_idx.size:
            if weighted:
                positions[move_idx] = _weighted_step(graph, cur, rng)
            elif strategy == "sorted":
                positions[move_idx] = _sorted_gather_step(graph, cur, degrees, rng)
            else:
                draws = rng.integers(0, 2**32, size=move_idx.size, dtype=np.uint64)
                np.remainder(draws, deg.astype(np.uint64), out=draws)
                positions[move_idx] = graph.ith_neighbors(cur, draws.view(np.int64))
        remaining[active] -= 1
    return positions


def _sorted_gather_step(
    graph: CSRGraph,
    current: np.ndarray,
    degrees: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One step with walkers grouped by current vertex (semisort batching).

    Sorting clusters accesses to each vertex's adjacency list, which in the
    C++ setting trades a sort for cache-friendly sequential reads.  The
    sampled distribution is identical to the direct strategy.
    """
    order = np.argsort(current, kind="stable")
    sorted_cur = current[order]
    draws = rng.integers(0, 2**32, size=sorted_cur.size, dtype=np.uint64)
    idx = (draws % degrees[sorted_cur].astype(np.uint64)).astype(np.int64)
    gathered = graph.ith_neighbors(sorted_cur, idx)
    out = np.empty_like(gathered)
    out[order] = gathered
    return out


def _weighted_step(
    graph: CSRGraph, current: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One weighted step per walker (scalar loop; weighted inputs are small)."""
    out = np.empty(current.size, dtype=np.int64)
    for k, u in enumerate(current):
        nbrs = graph.neighbors(int(u))
        wts = graph.neighbor_weights(int(u))
        if wts is None:
            out[k] = nbrs[rng.integers(nbrs.size)]
        else:
            probs = wts / wts.sum()
            out[k] = rng.choice(nbrs, p=probs)
    return out


def random_walk_matrix_sample(
    graph: CSRGraph,
    walk_length: int,
    walks_per_vertex: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample full walk trajectories — used by the DeepWalk-SGD baseline.

    Returns an array of shape ``(n * walks_per_vertex, walk_length + 1)``
    whose rows are vertex trajectories starting from each vertex in turn.
    """
    if walk_length < 0:
        raise SamplingError(f"walk_length must be non-negative, got {walk_length}")
    if walks_per_vertex <= 0:
        raise SamplingError(
            f"walks_per_vertex must be positive, got {walks_per_vertex}"
        )
    rng = ensure_rng(seed)
    n = graph.num_vertices
    degrees = graph.degrees()
    starts = np.tile(np.arange(n, dtype=np.int64), walks_per_vertex)
    walks = np.empty((starts.size, walk_length + 1), dtype=np.int64)
    walks[:, 0] = starts
    current = starts.copy()
    for t in range(1, walk_length + 1):
        deg = degrees[current]
        movable = deg > 0
        if movable.any():
            cur = current[movable]
            draws = rng.integers(0, 2**32, size=cur.size, dtype=np.uint64)
            idx = (draws % degrees[cur].astype(np.uint64)).astype(np.int64)
            current[movable] = graph.ith_neighbors(cur, idx)
        walks[:, t] = current
    return walks
