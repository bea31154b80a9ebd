"""Graph serialization: text edge lists and two binary CSR containers.

Three formats:

* **Edge list** (``.txt``/``.edges``) — one ``u v [w]`` pair per line,
  ``#``-prefixed comments allowed (a first line ``# num_vertices: N``, which
  :func:`write_edge_list` writes, sets the vertex count); the lingua franca
  of the embedding literature (all of the paper's public datasets ship this
  way).  Parsed in
  fixed-size chunks into preallocated int64 arrays, so peak ingest memory is
  ~16 bytes/edge of numpy instead of ~56 bytes/edge of Python ``int`` lists.
* **Binary CSR v1** (``.csr.npz``) — numpy ``savez`` of the offsets/targets
  (/weights) arrays; loads back without re-sorting, the analog of the
  preprocessed binary inputs GBBS consumes.  Compressed, therefore *not*
  memmappable: :func:`load_csr` always materializes v1 arrays in RAM.
* **Binary CSR v2** (``.csrv2`` directory) — the out-of-core container: a
  JSON header plus one raw ``.npy`` file per array, written uncompressed so
  :func:`load_csr` can open them with ``numpy.load(..., mmap_mode="r")`` and
  hand back a :class:`~repro.graph.csr.CSRGraph` whose offsets/targets/
  weights are disk-backed views — nothing is materialized until a kernel
  touches the pages.

v2 layout (``<path>/``)::

    header.json     {"magic": "repro-csr-v2", "version": 2, n, directed edges,
                     weighted flag, per-array dtype strings}
    offsets.npy     int64[n + 1]
    targets.npy     int32/int64[2m]
    weights.npy     float64[2m]        (weighted graphs only)

Integrity: :func:`load_csr_v2` validates the magic, the declared dtypes and
the array lengths against the header before returning, so a truncated or
foreign directory fails with :class:`~repro.errors.GraphFormatError` instead
of a downstream index error.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

PathLike = Union[str, os.PathLike]

_MAGIC = "repro-csr-v1"
_MAGIC_V2 = "repro-csr-v2"
_HEADER_NAME = "header.json"
CSR_V2_SUFFIX = ".csrv2"

# Edges parsed per preallocated chunk during text ingest (~16 MiB of int64
# per chunk across the two endpoint arrays).
_PARSE_CHUNK = 1 << 20

# First-line comment carrying the vertex count, so ids with no edge (trailing
# isolated vertices) survive a write/read round trip.
_NUM_VERTICES_HEADER = "# num_vertices:"


class _ChunkedPairBuffer:
    """Accumulate ``(u, v[, w])`` rows into preallocated numpy chunks.

    The text readers used to append Python ``int``s to lists — ~28 bytes per
    object plus an 8-byte list slot, per endpoint — so ingest peak RSS
    dwarfed the final CSR arrays.  This buffer writes parsed ids straight
    into fixed-size int64 arrays, sealing each full chunk, and concatenates
    once at the end: peak overhead is one chunk plus the final arrays.
    """

    def __init__(self, chunk_size: int = _PARSE_CHUNK, weighted: bool = False):
        self.chunk_size = chunk_size
        self.weighted = weighted
        self._chunks: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = []
        self._fill = 0
        self._alloc()

    def _alloc(self) -> None:
        self._u = np.empty(self.chunk_size, dtype=np.int64)
        self._v = np.empty(self.chunk_size, dtype=np.int64)
        self._w = np.empty(self.chunk_size, dtype=np.float64) if self.weighted else None
        self._fill = 0

    def _seal(self) -> None:
        if self._fill:
            self._chunks.append(
                (
                    self._u[: self._fill].copy(),
                    self._v[: self._fill].copy(),
                    self._w[: self._fill].copy() if self._w is not None else None,
                )
            )
        self._alloc()

    def append(self, u: int, v: int, w: float = 1.0) -> None:
        if self._fill == self.chunk_size:
            self._seal()
        self._u[self._fill] = u
        self._v[self._fill] = v
        if self._w is not None:
            self._w[self._fill] = w
        self._fill += 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Concatenated ``(sources, targets, weights-or-None)``."""
        self._seal()
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), (
                np.empty(0, dtype=np.float64) if self.weighted else None
            )
        sources = np.concatenate([c[0] for c in self._chunks])
        targets = np.concatenate([c[1] for c in self._chunks])
        weights = (
            np.concatenate([c[2] for c in self._chunks]) if self.weighted else None
        )
        return sources, targets, weights


def read_edge_list(
    path: PathLike,
    *,
    symmetrize: bool = True,
    num_vertices: Optional[int] = None,
) -> CSRGraph:
    """Parse a whitespace-separated edge-list file into a graph.

    Lines may be ``u v`` or ``u v weight``; blank lines and lines starting
    with ``#`` or ``%`` are skipped.  A first line ``# num_vertices: N`` (what
    :func:`write_edge_list` writes) sets the vertex count unless
    ``num_vertices`` is given; an edge endpoint at or beyond the count is a
    :class:`~repro.errors.GraphConstructionError`.  Mixing weighted and
    unweighted lines, and a NaN or infinite weight, are
    :class:`~repro.errors.GraphFormatError` naming the line.  Parsing
    streams through fixed-size preallocated chunks
    (:class:`_ChunkedPairBuffer`), so peak memory tracks the final arrays,
    not a Python-object edge list.
    """
    buffer: Optional[_ChunkedPairBuffer] = None
    saw_weight = None
    declared = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if lineno == 1 and stripped.startswith(_NUM_VERTICES_HEADER):
                try:
                    declared = int(stripped[len(_NUM_VERTICES_HEADER):])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:1: bad vertex count in {stripped!r}"
                    ) from exc
                continue
            if not stripped or stripped[0] in "#%":
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v [w]', got {stripped!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {stripped!r}"
                ) from exc
            has_weight = len(parts) == 3
            if saw_weight is None:
                saw_weight = has_weight
                buffer = _ChunkedPairBuffer(weighted=has_weight)
            elif saw_weight != has_weight:
                raise GraphFormatError(
                    f"{path}:{lineno}: mixed weighted/unweighted lines"
                )
            if has_weight:
                try:
                    weight = float(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad weight in {stripped!r}"
                    ) from exc
                if not math.isfinite(weight):
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-finite weight in {stripped!r}"
                    )
                buffer.append(u, v, weight)
            else:
                buffer.append(u, v)
    if buffer is None:
        buffer = _ChunkedPairBuffer(weighted=False)
    sources, targets, weights = buffer.arrays()
    return from_edges(
        sources,
        targets,
        weights,
        num_vertices=declared if num_vertices is None else num_vertices,
        symmetrize=symmetrize,
    )


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write each undirected edge once (``u < v``), with weight if present,
    under a ``# num_vertices: N`` first line."""
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    wts = graph.weights[mask] if graph.weights is not None else None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_NUM_VERTICES_HEADER} {graph.num_vertices}\n")
        if wts is None:
            for u, v in zip(src, dst):
                handle.write(f"{u} {v}\n")
        else:
            for u, v, w in zip(src, dst, wts):
                handle.write(f"{u} {v} {w:.10g}\n")


def read_metis(path: PathLike) -> CSRGraph:
    """Parse a METIS graph file.

    Header line: ``n m [fmt]`` (only unweighted fmt 0/00 or vertex-weighted
    headers without edge weights are supported); line ``i`` then lists the
    1-indexed neighbors of vertex ``i``.  Comment lines start with ``%``.
    """
    buffer = _ChunkedPairBuffer()
    header = None
    vertex = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped and stripped[0] == "%":
                continue
            if not stripped:
                # A blank adjacency line is a valid isolated vertex (but
                # blank lines before the header are just skipped).
                if header is not None:
                    vertex += 1
                continue
            parts = stripped.split()
            if header is None:
                if len(parts) < 2:
                    raise GraphFormatError(
                        f"{path}:{lineno}: METIS header needs 'n m'"
                    )
                if len(parts) >= 3 and parts[2].strip("0"):
                    raise GraphFormatError(
                        f"{path}:{lineno}: weighted METIS fmt {parts[2]!r} "
                        "not supported"
                    )
                header = (int(parts[0]), int(parts[1]))
                continue
            vertex += 1
            for token in parts:
                try:
                    neighbor = int(token)
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad neighbor id {token!r}"
                    ) from exc
                if neighbor < 1 or (header and neighbor > header[0]):
                    raise GraphFormatError(
                        f"{path}:{lineno}: neighbor {neighbor} out of range"
                    )
                buffer.append(vertex - 1, neighbor - 1)
    if header is None:
        raise GraphFormatError(f"{path}: missing METIS header")
    n, m = header
    if vertex != n:
        raise GraphFormatError(
            f"{path}: header declares {n} vertices, found {vertex} adjacency lines"
        )
    sources, targets, _ = buffer.arrays()
    graph = from_edges(sources, targets, num_vertices=n, symmetrize=True)
    if graph.num_edges != m:
        # METIS counts undirected edges; tolerate mismatch from dedup but
        # flag gross inconsistencies.
        if abs(graph.num_edges - m) > max(2, m // 10):
            raise GraphFormatError(
                f"{path}: header declares {m} edges, parsed {graph.num_edges}"
            )
    return graph


def read_adjacency_list(path: PathLike) -> CSRGraph:
    """Parse a SNAP-style adjacency list: ``u v1 v2 v3 ...`` per line.

    0-indexed; ``#``/``%`` comments allowed; vertices may repeat across
    lines (lists merge).  Uses the same chunked preallocated ingest as
    :func:`read_edge_list`.
    """
    buffer = _ChunkedPairBuffer()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            parts = stripped.split()
            try:
                u = int(parts[0])
                for token in parts[1:]:
                    buffer.append(u, int(token))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer id in {stripped!r}"
                ) from exc
    sources, targets, _ = buffer.arrays()
    return from_edges(sources, targets, symmetrize=True)


def save_csr(graph: CSRGraph, path: PathLike) -> None:
    """Save a graph to the binary ``.npz`` CSR container (v1, compressed)."""
    arrays = {
        "magic": np.array(_MAGIC),
        "offsets": graph.offsets,
        "targets": graph.targets,
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(path, **arrays)


# --------------------------------------------------------------------- v2
def _v2_header(graph: CSRGraph) -> dict:
    header = {
        "magic": _MAGIC_V2,
        "version": 2,
        "num_vertices": int(graph.num_vertices),
        "num_directed_edges": int(graph.num_directed_edges),
        "weighted": bool(graph.weights is not None),
        "dtypes": {
            "offsets": graph.offsets.dtype.str,
            "targets": graph.targets.dtype.str,
        },
    }
    if graph.weights is not None:
        header["dtypes"]["weights"] = graph.weights.dtype.str
    return header


def save_csr_v2(graph: CSRGraph, path: PathLike) -> str:
    """Save a graph to the memmappable CSR v2 directory container.

    Writes ``header.json`` plus one uncompressed ``.npy`` per array under
    ``path`` (created if missing; conventionally suffixed ``.csrv2``).
    Returns the directory path.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    np.save(os.path.join(path, "offsets.npy"), np.ascontiguousarray(graph.offsets))
    np.save(os.path.join(path, "targets.npy"), np.ascontiguousarray(graph.targets))
    if graph.weights is not None:
        np.save(
            os.path.join(path, "weights.npy"), np.ascontiguousarray(graph.weights)
        )
    header_path = os.path.join(path, _HEADER_NAME)
    with open(header_path, "w", encoding="utf-8") as handle:
        json.dump(_v2_header(graph), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def is_csr_v2(path: PathLike) -> bool:
    """Whether ``path`` looks like a CSR v2 container directory."""
    path = os.fspath(path)
    return os.path.isdir(path) and os.path.isfile(os.path.join(path, _HEADER_NAME))


def _load_v2_array(
    directory: str,
    name: str,
    dtype: str,
    length: int,
    mmap_mode: Optional[str],
) -> np.ndarray:
    array_path = os.path.join(directory, f"{name}.npy")
    if not os.path.isfile(array_path):
        raise GraphFormatError(f"{directory}: missing CSR v2 array {name!r}")
    try:
        array = np.load(array_path, mmap_mode=mmap_mode, allow_pickle=False)
    except (ValueError, OSError) as exc:
        raise GraphFormatError(
            f"{array_path}: unreadable CSR v2 array ({exc})"
        ) from exc
    if array.ndim != 1:
        raise GraphFormatError(f"{array_path}: expected a 1-D array")
    if array.dtype.str != dtype:
        raise GraphFormatError(
            f"{array_path}: dtype {array.dtype.str} != header's {dtype}"
        )
    if array.size != length:
        raise GraphFormatError(
            f"{array_path}: length {array.size} != header's {length} "
            "(truncated or foreign container?)"
        )
    return array


def load_csr_v2(path: PathLike, *, mmap: bool = True) -> CSRGraph:
    """Open a CSR v2 container, memmapped by default.

    With ``mmap=True`` (the point of the format) the returned graph's
    ``offsets``/``targets``/``weights`` are read-only ``numpy.memmap`` views
    — the container can exceed RAM, and pages are faulted in only when a
    kernel touches them.  Structural validation against the header (magic,
    dtypes, array lengths) replaces the element-wise :class:`CSRGraph`
    checks, which would otherwise stream every page through memory at load
    time.
    """
    path = os.fspath(path)
    header_path = os.path.join(path, _HEADER_NAME)
    if not os.path.isfile(header_path):
        raise GraphFormatError(f"{path} is not a CSR v2 container (no header)")
    try:
        with open(header_path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"{header_path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC_V2:
        raise GraphFormatError(
            f"{path} is not a repro CSR v2 container (bad magic: "
            f"{header.get('magic') if isinstance(header, dict) else header!r})"
        )
    try:
        n = int(header["num_vertices"])
        directed = int(header["num_directed_edges"])
        weighted = bool(header["weighted"])
        dtypes = dict(header["dtypes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"{header_path}: malformed header ({exc})") from exc
    if n < 0 or directed < 0:
        raise GraphFormatError(f"{header_path}: negative sizes in header")
    mode = "r" if mmap else None
    offsets = _load_v2_array(path, "offsets", dtypes.get("offsets", "<i8"), n + 1, mode)
    targets = _load_v2_array(path, "targets", dtypes.get("targets", "<i8"), directed, mode)
    weights = None
    if weighted:
        weights = _load_v2_array(
            path, "weights", dtypes.get("weights", "<f8"), directed, mode
        )
    # Cheap endpoint checks instead of the full element-wise validation
    # (which would fault in every page of a larger-than-RAM container).
    if offsets[0] != 0 or offsets[-1] != directed:
        raise GraphFormatError(
            f"{path}: offsets endpoints {int(offsets[0])}..{int(offsets[-1])} "
            f"inconsistent with header ({directed} directed edges)"
        )
    return CSRGraph(offsets, targets, weights, check=not mmap)


def load_csr(path: PathLike, *, mmap: Optional[bool] = None) -> CSRGraph:
    """Load a binary CSR container (v1 ``.npz`` or v2 directory).

    v2 containers open memmapped by default (``mmap=None`` → ``True``); pass
    ``mmap=False`` to materialize them in RAM.  v1 ``.npz`` archives are
    compressed and cannot be memmapped — requesting ``mmap=True`` for one
    raises :class:`~repro.errors.GraphFormatError`.
    """
    path = os.fspath(path)
    if is_csr_v2(path):
        return load_csr_v2(path, mmap=True if mmap is None else mmap)
    if mmap:
        raise GraphFormatError(
            f"{path}: only CSR v2 containers support memmapped loads "
            "(convert with save_csr_v2 / `lightne convert`)"
        )
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _MAGIC:
            raise GraphFormatError(f"{path} is not a repro CSR container")
        weights = data["weights"] if "weights" in data else None
        return CSRGraph(data["offsets"], data["targets"], weights)
