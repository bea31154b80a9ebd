"""GBBS/Ligra-style bulk functional primitives over graphs (Section 4.1).

The paper's sparsifier construction is driven by ``G.MapEdges(f)`` — apply a
user function to every edge in parallel.  Python cannot run user bytecode in
parallel, so these primitives take *chunk kernels*: vectorized functions that
receive contiguous arrays of edge endpoints (and weights) and return a result
per chunk.  Results are combined in chunk order, so deterministic pipelines
stay deterministic regardless of ``workers``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.graph.compression import GraphLike
from repro.utils.parallel import chunk_ranges, parallel_map

T = TypeVar("T")


def edge_chunks(graph: GraphLike, chunks: int) -> List[tuple]:
    """Split the undirected edge set ``(u < v)`` into contiguous chunks.

    Returns a list of ``(sources, targets, weights)`` triples (weights ``None``
    when unweighted).  Each undirected edge appears exactly once, matching the
    per-edge sampling loop in Algorithm 2 of the paper.
    """
    graph = graph.flat()
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    wts = graph.weights[mask] if graph.weights is not None else None
    result = []
    for start, stop in chunk_ranges(src.size, chunks):
        chunk_w = wts[start:stop] if wts is not None else None
        result.append((src[start:stop], dst[start:stop], chunk_w))
    return result


def map_edges(
    graph: GraphLike,
    kernel: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], T],
    *,
    chunks: int = 1,
    workers: int = 1,
) -> List[T]:
    """Apply a vectorized ``kernel(sources, targets, weights)`` per edge chunk.

    The Python analog of GBBS ``MapEdges``: each undirected edge is visited
    exactly once.  Returns the list of per-chunk results in chunk order.
    """
    return parallel_map(kernel, edge_chunks(graph, chunks), workers=workers)


def map_vertices(
    graph: GraphLike,
    kernel: Callable[[np.ndarray], T],
    *,
    chunks: int = 1,
    workers: int = 1,
) -> List[T]:
    """Apply a vectorized ``kernel(vertex_ids)`` per contiguous vertex chunk."""
    n = graph.num_vertices
    args = [
        (np.arange(start, stop, dtype=np.int64),)
        for start, stop in chunk_ranges(n, chunks)
    ]
    return parallel_map(kernel, args, workers=workers)


def edge_reduce(
    graph: GraphLike,
    kernel: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], float],
    combine: Callable[[Sequence[float]], float] = sum,
    *,
    chunks: int = 1,
    workers: int = 1,
) -> float:
    """Map over edge chunks and combine scalar chunk results."""
    return combine(map_edges(graph, kernel, chunks=chunks, workers=workers))


def count_edges_where(
    graph: GraphLike,
    predicate: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray],
    *,
    chunks: int = 1,
    workers: int = 1,
) -> int:
    """Count undirected edges whose endpoints satisfy a vectorized predicate."""

    def kernel(src: np.ndarray, dst: np.ndarray, wts: Optional[np.ndarray]) -> int:
        return int(np.count_nonzero(predicate(src, dst, wts)))

    return int(edge_reduce(graph, kernel, chunks=chunks, workers=workers))
