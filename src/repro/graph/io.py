"""Graph serialization: text edge lists and two binary CSR containers.

Three formats:

* **Edge list** (``.txt``/``.edges``) — one ``u v [w]`` pair per line,
  ``#``-prefixed comments allowed (a first line ``# num_vertices: N``, which
  :func:`write_edge_list` writes, sets the vertex count, and a second line
  ``# num_edges: M``, written too, the number of edge lines); the lingua franca
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
                     weighted flag, per-array dtype strings and CRC-32s}
    offsets.npy     int64[n + 1]
    targets.npy     int32/int64[2m]
    weights.npy     float64[2m]        (weighted graphs only)

Integrity: every reader returns the graph that was written or raises
:class:`~repro.errors.GraphFormatError`.  :func:`load_csr_v2` checks the
magic, the declared dtypes and the array lengths against the header; both
binary loaders, memmapped or not, hold the arrays to the one CSR check
(:func:`~repro.graph.csr.csr_fault`: integer offsets and ids and real
weights as stored, monotone offsets, ids in ``[0, n)``, strictly
increasing rows, finite non-negative weights), and a v2 load
compares each array's CRC-32 with the header's, so a byte changed after
writing cannot pass as another valid id.  A v1 archive's zip and zlib
faults (and a member list that disagrees with the archive's end record),
a text file's non-UTF-8 bytes, and an edge list whose ``# num_edges: M``
line disagrees with its edge lines or whose last line has no newline (a
file cut short), are ``GraphFormatError`` too, naming the file (and the
line).
"""

from __future__ import annotations

import json
import lzma
import math
import os
import tokenize
import zipfile
import zlib
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphConstructionError, GraphFormatError
from repro.graph.builders import from_edges
from repro.graph.csr import CHECK_BLOCK, CSRGraph, csr_fault

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
# Second-line comment carrying the edge-line count, so a file cut short is
# an error rather than a smaller graph.
_NUM_EDGES_HEADER = "# num_edges:"

# Entries per block of a v2 container's CRC-32s: what a memmapped load
# faults in at once.
_V2_CHECK_BLOCK = CHECK_BLOCK


def _lines(path: PathLike) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped line)`` for each line of a UTF-8 text file;
    a byte that is not UTF-8 is a :class:`GraphFormatError` naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                yield lineno, line.strip()
    except UnicodeDecodeError as exc:
        # The decoder reads ahead of the parser: find the line it failed on.
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise GraphFormatError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason})"
        ) from exc


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
    :class:`~repro.errors.GraphConstructionError`.  A second line
    ``# num_edges: M`` (written too) makes the file hold exactly ``M`` edge
    lines and end with a newline, or it is a
    :class:`~repro.errors.GraphFormatError` naming the file: a file cut
    short, even inside its last line, is refused.  So is a file without an
    edge line that is neither empty nor ends with a newline: cut inside its
    header lines, it no longer says what it held.  Mixing weighted and
    unweighted lines, and a NaN or infinite weight, are
    :class:`~repro.errors.GraphFormatError` naming the line.  Parsing
    streams through fixed-size preallocated chunks
    (:class:`_ChunkedPairBuffer`), so peak memory tracks the final arrays,
    not a Python-object edge list.
    """
    buffer: Optional[_ChunkedPairBuffer] = None
    saw_weight = None
    declared = declared_edges = None
    for lineno, stripped in _lines(path):
        if lineno == 1 and stripped.startswith(_NUM_VERTICES_HEADER):
            declared = _header_count(
                path, lineno, stripped, _NUM_VERTICES_HEADER, "vertex"
            )
            continue
        if lineno == 2 and stripped.startswith(_NUM_EDGES_HEADER):
            declared_edges = _header_count(
                path, lineno, stripped, _NUM_EDGES_HEADER, "edge"
            )
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
    if declared_edges is not None and sources.size != declared_edges:
        raise GraphFormatError(
            f"{path}: {sources.size} edge lines, the header declares "
            f"{declared_edges} (truncated?)"
        )
    if (declared_edges is not None or sources.size == 0) and _cut_short(path):
        raise GraphFormatError(
            f"{path}: no newline at the end of the last line (truncated?)"
        )
    return from_edges(
        sources,
        targets,
        weights,
        num_vertices=declared if num_vertices is None else num_vertices,
        symmetrize=symmetrize,
    )


def _header_count(
    path: PathLike, lineno: int, stripped: str, header: str, what: str
) -> int:
    """The count a ``# num_...: K`` header line declares."""
    try:
        return int(stripped[len(header):])
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}:{lineno}: bad {what} count in {stripped!r}"
        ) from exc


def _cut_short(path: PathLike) -> bool:
    """Whether the file is not empty and its last byte is not a newline."""
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write each undirected edge once (``u < v``), with weight if present,
    under a ``# num_vertices: N`` first line and a ``# num_edges: M``
    second line."""
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    wts = graph.weights[mask] if graph.weights is not None else None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_NUM_VERTICES_HEADER} {graph.num_vertices}\n")
        handle.write(f"{_NUM_EDGES_HEADER} {src.size}\n")
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
    for lineno, stripped in _lines(path):
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
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer METIS header {stripped!r}"
                ) from exc
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
    for lineno, stripped in _lines(path):
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
def _crc32(array: np.ndarray) -> int:
    """CRC-32 of a contiguous array's bytes, ``_V2_CHECK_BLOCK`` entries at
    a time (a memmapped array is streamed, not faulted in whole)."""
    crc = 0
    for start in range(0, array.size, _V2_CHECK_BLOCK):
        crc = zlib.crc32(array[start : start + _V2_CHECK_BLOCK], crc)
    return crc


def save_csr_v2(graph: CSRGraph, path: PathLike) -> str:
    """Save a graph to the memmappable CSR v2 directory container.

    Writes ``header.json`` (sizes, and each array's dtype and CRC-32) plus
    one uncompressed ``.npy`` per array under ``path`` (created if missing;
    conventionally suffixed ``.csrv2``).  Returns the directory path.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    arrays = {"offsets": graph.offsets, "targets": graph.targets}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    header = {
        "magic": _MAGIC_V2,
        "version": 2,
        "num_vertices": int(graph.num_vertices),
        "num_directed_edges": int(graph.num_directed_edges),
        "weighted": graph.weights is not None,
        "dtypes": {},
        "crc32": {},
    }
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        np.save(os.path.join(path, f"{name}.npy"), array)
        header["dtypes"][name] = array.dtype.str
        header["crc32"][name] = _crc32(array)
    header_path = os.path.join(path, _HEADER_NAME)
    with open(header_path, "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def is_csr_v2(path: PathLike) -> bool:
    """Whether ``path`` looks like a CSR v2 container directory."""
    path = os.fspath(path)
    return os.path.isdir(path) and os.path.isfile(os.path.join(path, _HEADER_NAME))


# What ``np.load`` raises on a damaged ``.npy`` file: a short read, a header
# it cannot parse (numpy re-tokenizes a header ``literal_eval`` rejects).
_NPY_ERRORS = (ValueError, OSError, EOFError, tokenize.TokenError)


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
    except _NPY_ERRORS as exc:
        raise GraphFormatError(
            f"{array_path}: unreadable CSR v2 array ({exc!r})"
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
    kernel touches them.  The header is checked against the arrays (magic,
    dtypes, lengths), then the arrays go through the same one-pass CSR
    check in either mode (:func:`~repro.graph.csr.csr_fault`, streamed in
    blocks): offsets and targets of an integer dtype and weights of a real
    one, as stored (before any cast), offsets monotone from 0 to
    ``len(targets)``, targets in ``[0, n)``, rows strictly increasing,
    weights finite and non-negative.  The first fault is a
    :class:`GraphFormatError` naming the array file (and the index), never an
    out-of-bounds read or a wrong ``has_edge`` later on.  Last, each array's
    CRC-32 must equal the header's, so a byte changed after writing is a
    ``GraphFormatError`` even where it reads as another valid id (a header
    without checksums, from before they were written, skips this).
    """
    path = os.fspath(path)
    header_path = os.path.join(path, _HEADER_NAME)
    if not os.path.isfile(header_path):
        raise GraphFormatError(f"{path} is not a CSR v2 container (no header)")
    try:
        with open(header_path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except (OSError, ValueError) as exc:
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
        checksums = dict(header.get("crc32", {}))
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
    fault = csr_fault(offsets, targets, weights)
    if fault is not None:
        name, message = fault
        raise GraphFormatError(f"{os.path.join(path, name)}.npy: {message}")
    arrays = {"offsets": offsets, "targets": targets, "weights": weights}
    for name, array in arrays.items():
        expected = checksums.get(name)
        if array is not None and expected is not None and _crc32(array) != expected:
            raise GraphFormatError(
                f"{os.path.join(path, name)}.npy: CRC-32 does not match the "
                "header's (the file changed after it was written)"
            )
    return CSRGraph(offsets, targets, weights, check=False)


# What ``np.load`` of a damaged ``.npz`` raises, or reading a member of it:
# a bad zip structure or CRC, a bad deflate stream, a member name that no
# longer matches, a flag or method byte turned into one ``zipfile`` refuses
# (``NotImplementedError``; ``RuntimeError`` for "encrypted") or decodes with
# another codec (``lzma.LZMAError``; bz2 raises ``OSError``), a damaged
# ``.npy`` member.
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile, zlib.error, lzma.LZMAError, KeyError,
    NotImplementedError, RuntimeError,
) + _NPY_ERRORS


def _zip_entries_declared(path: str) -> Optional[int]:
    """The entry count in a zip archive's end record (``np.savez`` writes no
    archive comment, so the record is the last 22 bytes), or ``None``."""
    with open(path, "rb") as handle:
        handle.seek(max(os.path.getsize(path) - 22, 0))
        end = handle.read()
    if len(end) != 22 or end[:4] != b"PK\x05\x06":
        return None
    return int.from_bytes(end[10:12], "little")


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
    try:
        with np.load(path, allow_pickle=False) as data:
            if "magic" not in data or str(data["magic"]) != _MAGIC:
                raise GraphFormatError(f"{path} is not a repro CSR container")
            # zipfile trusts each directory entry's lengths, so one changed
            # byte there can hide the next member (the weights, say) or
            # rename it: the listing must hold the members the archive's end
            # record counts, under the names save_csr writes.
            stray = set(data.files) - {"magic", "offsets", "targets", "weights"}
            if stray or len(data.files) != _zip_entries_declared(path):
                raise GraphFormatError(
                    f"{path}: members {sorted(data.files)} do not match the "
                    "archive's directory"
                )
            offsets, targets = data["offsets"], data["targets"]
            weights = data["weights"] if "weights" in data else None
    except _ARCHIVE_ERRORS as exc:
        raise GraphFormatError(f"{path}: unreadable CSR archive ({exc!r})") from exc
    try:
        return CSRGraph(offsets, targets, weights)
    except GraphConstructionError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
