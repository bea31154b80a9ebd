"""Constructors for :class:`~repro.graph.csr.CSRGraph`.

The paper's pipeline ingests symmetric, de-duplicated, self-loop-free graphs
(the "-Sym" datasets in Table 3 are symmetrized crawls).  ``from_edges`` is
the canonical entry point: it symmetrizes, drops self-loops, merges parallel
edges (summing weights) and produces sorted CSR adjacency lists.

Every directed edge ``(u, v)`` becomes one int64 key ``u·n + v``, the packing
the sparsifier's aggregation uses too.  One stable argsort of the keys orders
the edges by row and then by neighbor, so parallel edges meet in input order
and their weights are summed in that order; grouping, targets and offsets all
come from the sorted keys.  A key is exact while ``n² − 1`` fits in int64
(:func:`pair_keys_fit`); ``from_edges`` refuses a larger ``n`` outright.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph


def pair_keys_fit(n: int) -> bool:
    """Whether every ``row·n + col`` key over ``[0, n)²`` is exact in int64."""
    return int(n) ** 2 - 1 <= np.iinfo(np.int64).max


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
        Integer endpoint arrays of equal length.  Integer-valued floats are
        accepted; fractional, NaN or infinite ids are rejected.
    weights:
        Optional per-edge weights; parallel duplicates are summed in input
        order (with ``symmetrize``, the reverse copies follow all the
        forward ones).
    num_vertices:
        Vertex-count override (``max id + 1`` when omitted).  With edges
        present, ``num_vertices² − 1`` must fit in int64.
    symmetrize:
        Store each edge in both directions (the library only models
        undirected graphs, mirroring the paper).
    drop_self_loops:
        Remove ``u == v`` edges before building.
    """
    src = _vertex_ids(sources)
    dst = _vertex_ids(targets)
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
    n = int(num_vertices)
    if src.size and not pair_keys_fit(n):
        raise GraphConstructionError(
            f"num_vertices={n}: packed u*n+v edge keys overflow int64"
        )

    if drop_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if wts is not None:
            wts = wts[keep]

    if src.size == 0:
        return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    # One key per directed edge; the reverse copies follow the forward ones.
    m = src.size
    key = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    np.multiply(src, n, out=key[:m])
    key[:m] += dst
    if symmetrize:
        np.multiply(dst, n, out=key[m:])
        key[m:] += src
    del src, dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    if wts is not None:
        # Position i >= m holds the reverse copy of edge i - m.
        wts = np.take(wts, order, mode="wrap")
    del order

    new_group = np.empty(key.size, dtype=bool)
    new_group[0] = True
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    rows, neighbors = np.divmod(key[starts], n)
    del key
    if wts is not None:
        wts = np.add.reduceat(wts, starts)

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return CSRGraph(offsets, neighbors, wts)


def _vertex_ids(values) -> np.ndarray:
    """Endpoint ids as flat int64; a float id must be finite and integral."""
    ids = np.asarray(values).ravel()
    if ids.dtype.kind == "f" and ids.size:
        if not (
            np.isfinite(ids).all()
            and (ids == np.trunc(ids)).all()
            and np.abs(ids).max() < 2.0**63
        ):
            raise GraphConstructionError(
                "vertex ids must be integers within int64: got a fractional, "
                "NaN, infinite or out-of-range id"
            )
    return ids.astype(np.int64, copy=False)


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

