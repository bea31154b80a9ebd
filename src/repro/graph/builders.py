"""Constructors for :class:`~repro.graph.csr.CSRGraph`.

The paper's pipeline ingests symmetric, de-duplicated, self-loop-free graphs
(the "-Sym" datasets in Table 3 are symmetrized crawls).  ``from_edges`` is
the canonical entry point: it symmetrizes, drops self-loops, merges parallel
edges (summing weights) and produces sorted CSR adjacency lists.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph


def from_edges(
    sources,
    targets,
    weights=None,
    *,
    num_vertices: Optional[int] = None,
    symmetrize: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel endpoint arrays.

    Parameters
    ----------
    sources, targets:
        Integer endpoint arrays of equal length.
    weights:
        Optional per-edge weights; parallel duplicates are summed.
    num_vertices:
        Vertex-count override (``max id + 1`` when omitted).
    symmetrize:
        Store each edge in both directions (the library only models
        undirected graphs, mirroring the paper).
    drop_self_loops:
        Remove ``u == v`` edges before building.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    dst = np.asarray(targets, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise GraphConstructionError(
            f"sources and targets differ in length: {src.size} vs {dst.size}"
        )
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphConstructionError("vertex ids must be non-negative")
    if weights is not None:
        wts = np.asarray(weights, dtype=np.float64).ravel()
        if wts.shape != src.shape:
            raise GraphConstructionError("weights must be parallel to endpoints")
    else:
        wts = None

    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    elif src.size and max(src.max(), dst.max()) >= num_vertices:
        raise GraphConstructionError(
            "num_vertices is smaller than the largest vertex id + 1"
        )

    if drop_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if wts is not None:
            wts = wts[keep]

    if symmetrize and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if wts is not None:
            wts = np.concatenate([wts, wts])

    return _csr_from_directed(src, dst, wts, num_vertices)


def _csr_from_directed(
    src: np.ndarray, dst: np.ndarray, wts: Optional[np.ndarray], n: int
) -> CSRGraph:
    """Sort, deduplicate (summing weights) and pack directed edges into CSR."""
    if src.size == 0:
        offsets = np.zeros(n + 1, dtype=np.int64)
        return CSRGraph(offsets, np.empty(0, dtype=np.int64), None)

    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if wts is not None:
        wts = wts[order]

    # Merge duplicates: group identical (src, dst) pairs.
    new_group = np.empty(src.size, dtype=bool)
    new_group[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    u_src = src[group_starts]
    u_dst = dst[group_starts]
    if wts is not None:
        u_wts = np.add.reduceat(wts, group_starts)
    else:
        u_wts = None

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, u_src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return CSRGraph(offsets, u_dst, u_wts)


def from_bipartite_edges(
    left_sources,
    right_targets,
    weights=None,
    *,
    num_left: Optional[int] = None,
    num_right: Optional[int] = None,
) -> CSRGraph:
    """Build the union graph of a bipartite edge set.

    Left vertices keep their ids ``[0, num_left)``; right vertex ``j`` is
    relabeled to ``num_left + j``, giving one undirected graph over
    ``num_left + num_right`` vertices whose every edge crosses the
    partition — the standard embedding-friendly encoding of user–item /
    author–paper graphs (all walk-based proximities then alternate sides).
    The counts default to ``max id + 1`` per side.  Downstream consumers
    slice embeddings as ``vectors[:num_left]`` / ``vectors[num_left:]``.
    """
    left = np.asarray(left_sources, dtype=np.int64).ravel()
    right = np.asarray(right_targets, dtype=np.int64).ravel()
    if left.shape != right.shape:
        raise GraphConstructionError(
            f"left and right endpoint arrays differ in length: "
            f"{left.size} vs {right.size}"
        )
    if left.size and (left.min() < 0 or right.min() < 0):
        raise GraphConstructionError("vertex ids must be non-negative")
    if num_left is None:
        num_left = int(left.max(initial=-1) + 1)
    elif left.size and left.max() >= num_left:
        raise GraphConstructionError(
            "num_left is smaller than the largest left vertex id + 1"
        )
    if num_right is None:
        num_right = int(right.max(initial=-1) + 1)
    elif right.size and right.max() >= num_right:
        raise GraphConstructionError(
            "num_right is smaller than the largest right vertex id + 1"
        )
    return from_edges(
        left,
        right + num_left,
        weights,
        num_vertices=num_left + num_right,
        symmetrize=True,
        drop_self_loops=False,  # sides are disjoint; no loops possible
    )


def from_scipy(matrix: sp.spmatrix, *, symmetrize: bool = True) -> CSRGraph:
    """Build a graph from a scipy sparse adjacency matrix.

    When ``symmetrize`` is true the matrix is replaced by
    ``max(A, A.T)`` so asymmetric inputs become valid undirected graphs;
    otherwise the matrix must already be symmetric.
    """
    rows, cols = matrix.shape
    if rows != cols:
        raise GraphConstructionError(f"adjacency must be square, got {matrix.shape}")

    def _maybe_weights(data: np.ndarray):
        # All-ones data means an unweighted graph; keep the leaner layout.
        return None if data.size == 0 or np.all(data == 1.0) else data

    coo = matrix.tocoo()
    if symmetrize:
        return from_edges(
            coo.row,
            coo.col,
            _maybe_weights(coo.data),
            num_vertices=rows,
            symmetrize=True,
        )
    a = matrix.tocsr()
    diff = (a - a.T).tocoo()
    if diff.nnz and np.abs(diff.data).max() > 1e-12:
        raise GraphConstructionError("matrix is not symmetric; pass symmetrize=True")
    # Already symmetric: each direction is present, do not double.
    coo = a.tocoo()
    keep = coo.row != coo.col
    return from_edges(
        coo.row[keep],
        coo.col[keep],
        _maybe_weights(coo.data[keep]),
        num_vertices=rows,
        symmetrize=False,
    )


def to_scipy(graph: CSRGraph) -> sp.csr_matrix:
    """Adjacency matrix of ``graph`` (alias of :meth:`CSRGraph.adjacency`)."""
    return graph.adjacency()

