"""Immutable CSR (compressed sparse row) graph — the library's core container.

This mirrors the uncompressed CSR representation used by GBBS: an offsets
array of length ``n + 1`` and a flat neighbor array of length ``2m`` (for an
undirected graph each edge is stored in both endpoints' lists).  Optional
per-edge weights are kept in a parallel float array.

Design notes
------------
* Arrays are never mutated after construction; ``CSRGraph`` methods hand out
  views, so callers must copy before writing.
* All bulk accessors are vectorized; scalar accessors (``neighbors``,
  ``ith_neighbor``) exist for random-walk style point lookups.
* ``volume`` follows the paper's convention ``vol(G) = sum of degrees = 2m``
  for an unweighted graph (weighted: sum of weighted degrees).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphConstructionError

# Entries per block of :func:`csr_fault`: a memmapped graph streams through
# a few arrays of this length instead of being faulted in whole.
CHECK_BLOCK = 1 << 20


def csr_fault(
    offsets: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
) -> Optional[Tuple[str, str]]:
    """The first broken CSR rule, as ``(array name, message)``, or ``None``.

    The arrays are checked as given, before any cast: ``offsets`` and
    ``targets`` must be of an integer dtype and ``weights`` of a real
    numeric one (a float id ``x.5`` would otherwise become ``x``).  Then one
    pass over each array, ``CHECK_BLOCK`` entries at a time: ``offsets``
    runs from 0 to ``len(targets)`` and never decreases, every target is a
    vertex id in ``[0, n)``, every row is strictly increasing, every weight
    is finite and non-negative.  The message names the first bad index.
    """
    for name, array, kinds, what in (
        ("offsets", offsets, "iu", "an integer"),
        ("targets", targets, "iu", "an integer"),
        ("weights", weights, "iuf", "a real numeric"),
    ):
        if array is not None and array.dtype.kind not in kinds:
            return name, f"{name} has dtype {array.dtype}, not {what} dtype"
    if offsets.ndim != 1 or offsets.size == 0:
        return "offsets", "offsets must be a non-empty 1-D array"
    if targets.ndim != 1:
        return "targets", "targets must be 1-D"
    if weights is not None and weights.shape != targets.shape:
        return "weights", "weights must be parallel to targets"
    n = offsets.size - 1

    def fault(name, array, i, problem):
        return name, f"{name}[{i}] = {array[i].item()} {problem}"

    if offsets[0] != 0:
        return fault("offsets", offsets, 0, "is not 0")
    for start in range(1, offsets.size, CHECK_BLOCK):
        chunk = offsets[start - 1 : start + CHECK_BLOCK]
        bad = np.flatnonzero(chunk[1:] < chunk[:-1])
        if bad.size:
            i = start + int(bad[0])
            below = f"is below offsets[{i - 1}] = {offsets[i - 1]}"
            return fault("offsets", offsets, i, below)
    if offsets[n] != targets.size:
        return fault("offsets", offsets, n, f"is not len(targets) = {targets.size}")
    for start in range(0, targets.size, CHECK_BLOCK):
        low = max(start - 1, 0)  # one entry of overlap: a row may cross the cut
        chunk = targets[low : start + CHECK_BLOCK]
        outside = chunk[:0]
        if chunk.min() < 0 or chunk.max() >= n:  # masks only for a bad block
            outside = np.flatnonzero((chunk < 0) | (chunk >= n))
        # A step that does not rise is legal only where a new row starts.
        steps = np.flatnonzero(chunk[1:] <= chunk[:-1]) + (low + 1)
        steps = steps[offsets[np.searchsorted(offsets, steps)] != steps]
        i = low + int(outside[0]) if outside.size else targets.size
        if steps.size and steps[0] < i:
            i = int(steps[0])
            u = int(np.searchsorted(offsets, i, side="right")) - 1
            return fault("targets", targets, i, (
                f"is not above targets[{i - 1}] = {targets[i - 1]}: "
                f"neighbors of vertex {u} are not sorted"
            ))
        if i < targets.size:
            return fault("targets", targets, i, f"is not a vertex id in [0, {n})")
    for start in range(0, 0 if weights is None else weights.size, CHECK_BLOCK):
        chunk = weights[start : start + CHECK_BLOCK]
        bad = np.flatnonzero(~(np.isfinite(chunk) & (chunk >= 0)))
        if bad.size:
            i = start + int(bad[0])
            return fault("weights", weights, i, "is not finite and non-negative")
    return None


class CSRGraph:
    """An undirected (symmetric) graph in CSR form.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``n + 1``; neighbors of vertex ``u`` live in
        ``targets[offsets[u]:offsets[u+1]]``.
    targets:
        ``int32``/``int64`` array of neighbor ids, strictly increasing within
        each vertex (what :func:`~repro.graph.builders.from_edges` emits;
        :meth:`has_edge` binary-searches a row).
    weights:
        Optional ``float32``/``float64`` array parallel to ``targets``; absent
        means the graph is unweighted (all weights 1).
    check:
        Run :func:`csr_fault` and raise its first fault as a
        :class:`~repro.errors.GraphConstructionError`; symmetry is *not*
        checked here for cost reasons — builders enforce it.
    """

    __slots__ = ("offsets", "targets", "weights", "_degrees", "_volume", "_op_cache")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        check: bool = True,
    ) -> None:
        offsets = np.asarray(offsets)
        targets = np.asarray(targets)
        if weights is not None:
            weights = np.asarray(weights)
        if check:
            fault = csr_fault(offsets, targets, weights)
            if fault is not None:
                raise GraphConstructionError(fault[1])
        offsets = offsets.astype(np.int64, copy=False)
        if targets.dtype not in (np.int32, np.int64):
            targets = targets.astype(np.int64)
        if weights is not None:
            weights = weights.astype(np.float64, copy=False)
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self._degrees: Optional[np.ndarray] = None
        self._volume: Optional[float] = None
        # Derived-operator memo (e.g. the propagation operator keyed by
        # dtype); lazily populated by repro.linalg, never part of equality.
        self._op_cache: Optional[dict] = None

    # ------------------------------------------------------------------ sizes
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.offsets.size - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) edges; ``2m`` for an undirected graph."""
        return int(self.targets.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (directed count halved)."""
        return self.num_directed_edges // 2

    @property
    def is_weighted(self) -> bool:
        """True when per-edge weights are stored."""
        return self.weights is not None

    # ---------------------------------------------------------------- degrees
    def degrees(self) -> np.ndarray:
        """Unweighted degrees (neighbor-list lengths), cached."""
        if self._degrees is None:
            self._degrees = np.diff(self.offsets)
        return self._degrees

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degrees ``d_u = sum_v A_uv`` (equals :meth:`degrees` when
        unweighted)."""
        degrees = self.degrees()
        if self.weights is None:
            return degrees.astype(np.float64)
        # np.add.reduceat misreads an empty segment as its start element, and
        # a start past the end of ``weights`` (trailing empty rows) is an
        # error, so only the non-empty rows are reduced: consecutive non-empty
        # starts delimit exactly one row each, the last runs to the end.
        sums = np.zeros(degrees.size, dtype=np.float64)
        nonempty = np.flatnonzero(degrees)
        if nonempty.size:
            sums[nonempty] = np.add.reduceat(self.weights, self.offsets[nonempty])
        return sums

    def degree(self, u: int) -> int:
        """Degree of a single vertex."""
        return int(self.offsets[u + 1] - self.offsets[u])

    @property
    def volume(self) -> float:
        """``vol(G)``: total (weighted) degree; ``2m`` when unweighted."""
        if self._volume is None:
            if self.weights is None:
                self._volume = float(self.num_directed_edges)
            else:
                self._volume = float(self.weights.sum())
        return self._volume

    # -------------------------------------------------------------- accessors
    def neighbors(self, u: int) -> np.ndarray:
        """View of ``u``'s neighbor ids (sorted)."""
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def neighbor_weights(self, u: int) -> Optional[np.ndarray]:
        """View of ``u``'s edge weights, or ``None`` when unweighted."""
        if self.weights is None:
            return None
        return self.weights[self.offsets[u] : self.offsets[u + 1]]

    def ith_neighbor(self, u: int, i: int) -> int:
        """The ``i``-th neighbor of ``u`` — the primitive random walks rely on.

        Raises ``IndexError`` when ``i`` is outside ``[0, degree(u))``.
        """
        start = self.offsets[u]
        if i < 0 or start + i >= self.offsets[u + 1]:
            raise IndexError(f"vertex {u} has no neighbor index {i}")
        return int(self.targets[start + i])

    def ith_neighbors(self, vertices: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ith_neighbor` for arrays of vertices/indices.

        Callers guarantee ``0 <= indices < degree(vertices)`` (random walks
        draw indices modulo the degree); out-of-range indices corrupt results.
        """
        slots = self.offsets[vertices]
        slots += indices
        return self.targets[slots]

    def has_edge(self, u: int, v: int) -> bool:
        """Binary-search membership test (rows are strictly increasing)."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return parallel ``(sources, targets)`` arrays of all directed edges."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=self.targets.dtype), self.degrees())
        return sources, self.targets

    # ------------------------------------------------------------- conversion
    def adjacency(self, dtype=np.float64) -> sp.csr_matrix:
        """The (symmetric) adjacency matrix as ``scipy.sparse.csr_matrix``."""
        n = self.num_vertices
        data = (
            np.ones(self.num_directed_edges, dtype=dtype)
            if self.weights is None
            else self.weights.astype(dtype)
        )
        return sp.csr_matrix(
            (data, self.targets.astype(np.int64), self.offsets), shape=(n, n)
        )

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not np.array_equal(self.offsets, other.offsets):
            return False
        if not np.array_equal(self.targets, other.targets):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None and not np.allclose(self.weights, other.weights):
            return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)
