"""Graph transformations: relabeling, induced subgraphs, degree ordering.

The Ligra+ compression the paper adopts benefits from locality-aware vertex
orderings — difference-encoded gaps shrink when neighbor ids cluster.
:func:`reorder_by_degree` implements the standard degree-descending relabel
(hubs first), which measurably improves the compression ratio on power-law
graphs (tested in ``tests/test_graph_transforms.py`` and visible in the E11
benchmark).  :func:`induced_subgraph` supports dataset slicing for the
scaled experiments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.builders import from_edges
from repro.graph.compression import GraphLike
from repro.graph.csr import CSRGraph


def permute_vertices(graph: GraphLike, permutation: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of old vertex ``u`` is ``permutation[u]``.

    ``permutation`` must be a bijection on ``range(n)``.
    """
    flat = graph.flat()
    n = flat.num_vertices
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.shape != (n,):
        raise GraphConstructionError(
            f"permutation must have length {n}, got {permutation.shape}"
        )
    if not np.array_equal(np.sort(permutation), np.arange(n)):
        raise GraphConstructionError("permutation is not a bijection on range(n)")
    src, dst = flat.edge_endpoints()
    mask = src < dst
    wts = flat.weights[mask] if flat.weights is not None else None
    return from_edges(
        permutation[src[mask]],
        permutation[dst[mask]],
        wts,
        num_vertices=n,
        symmetrize=True,
    )


def reorder_by_degree(graph: GraphLike, *, descending: bool = True) -> Tuple[CSRGraph, np.ndarray]:
    """Relabel vertices by degree (hubs first by default).

    Returns ``(relabeled_graph, permutation)`` with
    ``permutation[old_id] = new_id``.  On skewed graphs this shrinks the
    parallel-byte compressed size because high-degree vertices land on small
    ids and gap codes get shorter.
    """
    flat = graph.flat()
    degrees = flat.degrees()
    order = np.lexsort((np.arange(flat.num_vertices), -degrees if descending else degrees))
    permutation = np.empty(flat.num_vertices, dtype=np.int64)
    permutation[order] = np.arange(flat.num_vertices)
    return permute_vertices(flat, permutation), permutation


def induced_subgraph(graph: GraphLike, vertices) -> Tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices`` (relabeled to ``0..k-1``).

    Returns ``(subgraph, kept)`` where ``kept[i]`` is the original id of new
    vertex ``i`` (sorted ascending).
    """
    flat = graph.flat()
    n = flat.num_vertices
    kept = np.unique(np.asarray(vertices, dtype=np.int64))
    if kept.size and (kept[0] < 0 or kept[-1] >= n):
        raise GraphConstructionError("vertices contain out-of-range ids")
    remap = -np.ones(n, dtype=np.int64)
    remap[kept] = np.arange(kept.size)
    src, dst = flat.edge_endpoints()
    mask = (src < dst) & (remap[src] >= 0) & (remap[dst] >= 0)
    wts = flat.weights[mask] if flat.weights is not None else None
    sub = from_edges(
        remap[src[mask]],
        remap[dst[mask]],
        wts,
        num_vertices=int(kept.size),
        symmetrize=True,
    )
    return sub, kept


def add_edges(graph: GraphLike, new_sources, new_targets, new_weights=None) -> CSRGraph:
    """Return a new graph with extra edges merged in (duplicates collapse).

    The building block of the streaming/dynamic extension (paper §6 future
    work): batch edge arrivals, then re-embed.
    """
    flat = graph.flat()
    src, dst = flat.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    old_w = flat.weights[mask] if flat.weights is not None else None
    new_sources = np.asarray(new_sources, dtype=np.int64)
    new_targets = np.asarray(new_targets, dtype=np.int64)
    n = max(
        flat.num_vertices,
        int(new_sources.max(initial=-1)) + 1,
        int(new_targets.max(initial=-1)) + 1,
    )
    all_src = np.concatenate([src, new_sources])
    all_dst = np.concatenate([dst, new_targets])
    weights = None
    if old_w is not None or new_weights is not None:
        old_part = old_w if old_w is not None else np.ones(src.size)
        new_part = (
            np.asarray(new_weights, dtype=np.float64)
            if new_weights is not None
            else np.ones(new_sources.size)
        )
        weights = np.concatenate([old_part, new_part])
    return from_edges(all_src, all_dst, weights, num_vertices=n, symmetrize=True)


def remove_edges(graph: GraphLike, del_sources, del_targets) -> CSRGraph:
    """Return a new graph with the listed undirected edges removed.

    Edges absent from the graph are ignored (idempotent deletion).
    """
    flat = graph.flat()
    n = flat.num_vertices
    src, dst = flat.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    wts = flat.weights[mask] if flat.weights is not None else None
    del_sources = np.asarray(del_sources, dtype=np.int64)
    del_targets = np.asarray(del_targets, dtype=np.int64)
    lo = np.minimum(del_sources, del_targets)
    hi = np.maximum(del_sources, del_targets)
    doomed = set(zip(lo.tolist(), hi.tolist()))
    keep = np.fromiter(
        ((int(u), int(v)) not in doomed for u, v in zip(src, dst)),
        dtype=bool,
        count=src.size,
    )
    return from_edges(
        src[keep],
        dst[keep],
        wts[keep] if wts is not None else None,
        num_vertices=n,
        symmetrize=True,
    )
