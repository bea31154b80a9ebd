"""Graph partitioning and partition-then-embed (the intro's workload).

The paper's introduction describes the industry workaround LightNE
obsoletes: "Alibaba embeds a 600-billion-node commodity graph by first
partitioning it into 12,000 50-million-node subgraphs, and then embedding
each subgraph separately."  This module reproduces that pipeline so its
cost — cross-partition edges are simply lost — can be measured against
whole-graph embedding (see ``examples/partition_vs_whole.py``):

* :func:`bfs_partition` — size-capped BFS-grown parts (a simple, standard
  streaming partitioner);
* :func:`partition_edge_cut` — the fraction of edges a partition severs;
* :func:`embed_partitioned` — run any embedding method per part and stitch
  the vectors back into one ``(n, d)`` matrix (parts are embedded in
  isolation, exactly like the workaround).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro import telemetry
from repro.embedding.base import EmbeddingResult
from repro.errors import GraphConstructionError
from repro.graph.compression import GraphLike
from repro.graph.csr import CSRGraph
from repro.graph.transforms import induced_subgraph
from repro.utils.rng import SeedLike, ensure_rng


def bfs_partition(
    graph: GraphLike, num_parts: int, seed: SeedLike = None
) -> np.ndarray:
    """Assign every vertex to one of ``num_parts`` BFS-grown parts.

    Greedy region growing: parts take turns absorbing the next frontier
    vertex of their BFS until all vertices are claimed; leftover isolated
    vertices are scattered round-robin.  Parts end up within ±1 of the
    target size — the balance constraint real partitioners enforce.
    """
    flat = graph.flat()
    n = flat.num_vertices
    if num_parts < 1:
        raise GraphConstructionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > n:
        raise GraphConstructionError(
            f"num_parts {num_parts} exceeds vertex count {n}"
        )
    rng = ensure_rng(seed)
    target = -(-n // num_parts)  # ceil
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    frontiers: List[List[int]] = [[] for _ in range(num_parts)]

    # Seed each part at a random unclaimed vertex.
    order = rng.permutation(n)
    cursor = 0
    for part in range(num_parts):
        while cursor < n and assignment[order[cursor]] != -1:
            cursor += 1
        if cursor >= n:
            break
        seed_vertex = int(order[cursor])
        assignment[seed_vertex] = part
        sizes[part] += 1
        frontiers[part].append(seed_vertex)

    active = True
    while active:
        active = False
        for part in range(num_parts):
            if sizes[part] >= target:
                continue
            grew = False
            while frontiers[part] and not grew:
                vertex = frontiers[part][0]
                for neighbor in flat.neighbors(vertex):
                    neighbor = int(neighbor)
                    if assignment[neighbor] == -1:
                        assignment[neighbor] = part
                        sizes[part] += 1
                        frontiers[part].append(neighbor)
                        grew = True
                        break
                else:
                    frontiers[part].pop(0)
            if grew:
                active = True

    # Anything unreachable (other components): round-robin to light parts.
    for vertex in np.flatnonzero(assignment == -1):
        part = int(np.argmin(sizes))
        assignment[vertex] = part
        sizes[part] += 1
    return assignment


def partition_edge_cut(graph: GraphLike, assignment: np.ndarray) -> float:
    """Fraction of undirected edges whose endpoints land in different parts."""
    flat = graph.flat()
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (flat.num_vertices,):
        raise GraphConstructionError("assignment must have one entry per vertex")
    src, dst = flat.edge_endpoints()
    mask = src < dst
    if not mask.any():
        return 0.0
    return float((assignment[src[mask]] != assignment[dst[mask]]).mean())


def embed_partitioned(
    graph: GraphLike,
    assignment: np.ndarray,
    embedder: Callable[[CSRGraph, SeedLike], EmbeddingResult],
    *,
    dimension: int,
    seed: SeedLike = None,
) -> EmbeddingResult:
    """The Alibaba workaround: embed each part in isolation, stitch results.

    Parameters
    ----------
    graph, assignment:
        The whole graph and a part id per vertex.
    embedder:
        ``embedder(subgraph, seed) -> EmbeddingResult`` run per part.
    dimension:
        Expected embedding width (validated against each part's output).

    Returns
    -------
    An :class:`EmbeddingResult` whose rows line up with the *original*
    vertex ids.  Cross-partition edges never reach any embedder — that
    information loss is the point being measured.
    """
    flat = graph.flat()
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (flat.num_vertices,):
        raise GraphConstructionError("assignment must have one entry per vertex")
    rng = ensure_rng(seed)
    vectors = np.zeros((flat.num_vertices, dimension))
    parts = np.unique(assignment)
    cut = partition_edge_cut(flat, assignment)
    # The whole stage table is this one span; each part's embedder call is
    # a run of its own nested under it.
    with telemetry.run_scope("partitioned-embedding") as stage:
        for part in parts:
            members = np.flatnonzero(assignment == part)
            subgraph, kept = induced_subgraph(flat, members)
            if subgraph.num_edges == 0:
                continue  # all-isolated part: vectors stay zero
            result = embedder(subgraph, rng)
            if result.vectors.shape[0] != subgraph.num_vertices:
                raise GraphConstructionError(
                    "embedder returned vectors with mismatched row count"
                )
            if result.vectors.shape[1] > dimension:
                raise GraphConstructionError(
                    f"embedder returned width {result.vectors.shape[1]} > "
                    f"requested dimension {dimension}"
                )
            vectors[kept, : result.vectors.shape[1]] = result.vectors
    return EmbeddingResult(
        vectors,
        "partitioned",
        telemetry.StageTable([stage]),
        {"num_parts": int(parts.size), "edge_cut": cut},
    )
