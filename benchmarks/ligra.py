"""Ligra+ parallel-byte compressed adjacency lists (paper Section 4.1) — the
fixture benchmarks E11 and E14 measure.

The paper compresses CSR neighbor lists with the *parallel-byte* format from
Ligra+ [28]: a high-degree vertex's neighbors are split into blocks of a
configurable size (the paper settles on 64 after a size/latency trade-off
study, reproduced in benchmark E11).  Within a block, neighbor ids are
difference-encoded — the first entry relative to the *source vertex* (signed),
subsequent entries as positive gaps — and each difference is stored as a
variable-length byte code (7 payload bits per byte, high bit = continue).
Because every block restarts the difference chain at the source, blocks can be
decoded independently (in parallel in the C++ original), and fetching the
``i``-th neighbor only decodes one block.

This module implements:

* :func:`encode_neighbors` / :func:`decode_neighbors` — single-vertex codec;
* :class:`CompressedGraph` — the whole graph encoded, with the walk surface of
  :class:`~repro.graph.csr.CSRGraph` (``degrees``, ``weights``,
  ``neighbors``, ``ith_neighbor``, ``ith_neighbors``), so
  :func:`repro.graph.walks.step_random_walk` runs on it directly and E14 can
  time the per-step decode tax;
* :func:`compress_graph` / :meth:`CompressedGraph.decompress` round trip and
  :func:`compression_ratio` (E11's bytes-vs-block-size table);
* :func:`reorder_by_degree` (over :func:`permute_vertices`) — the
  degree-descending relabel that shrinks gap codes on power-law graphs.

The library itself takes only :class:`~repro.graph.csr.CSRGraph`: its memory
lever is the memmapped CSR v2 container (:mod:`repro.graph.io`), and a decode
kept beside the encoded form would cost memory rather than save it.  Weighted
graphs store weights uncompressed alongside.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError, ReproError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

DEFAULT_BLOCK_SIZE = 64

_CONTINUE_BIT = 0x80
_PAYLOAD_MASK = 0x7F


class CompressionError(ReproError):
    """Failure while encoding or decoding a compressed adjacency list."""


def _zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one (0,-1,1,-2,... -> 0,1,2,3,...)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _zigzag_decode(value: int) -> int:
    """Inverse of :func:`_zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def _varint_append(out: bytearray, value: int) -> None:
    """Append the LEB128-style byte code of non-negative ``value``."""
    if value < 0:
        raise CompressionError(f"varint value must be non-negative, got {value}")
    while True:
        byte = value & _PAYLOAD_MASK
        value >>= 7
        if value:
            out.append(byte | _CONTINUE_BIT)
        else:
            out.append(byte)
            return


def _varint_read(buf: np.ndarray, pos: int) -> Tuple[int, int]:
    """Decode one varint from ``buf`` starting at ``pos``; return (value, next_pos)."""
    value = 0
    shift = 0
    while True:
        byte = int(buf[pos])
        pos += 1
        value |= (byte & _PAYLOAD_MASK) << shift
        if not byte & _CONTINUE_BIT:
            return value, pos
        shift += 7


def encode_neighbors(
    source: int, neighbors: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> Tuple[bytes, np.ndarray]:
    """Encode one sorted neighbor list in the parallel-byte format.

    Returns ``(payload, block_offsets)`` where ``block_offsets[j]`` is the
    byte offset of block ``j`` within ``payload``.  The first difference of
    every block is zigzag-coded relative to ``source``; later differences are
    gaps minus one (consecutive ids are >= 1 apart after dedup).
    """
    if block_size <= 0:
        raise CompressionError(f"block_size must be positive, got {block_size}")
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.size and np.any(np.diff(neighbors) <= 0):
        raise CompressionError("neighbor list must be strictly increasing")
    out = bytearray()
    block_offsets: List[int] = []
    for start in range(0, neighbors.size, block_size):
        block_offsets.append(len(out))
        block = neighbors[start : start + block_size]
        _varint_append(out, _zigzag_encode(int(block[0]) - source))
        previous = int(block[0])
        for value in block[1:]:
            _varint_append(out, int(value) - previous - 1)
            previous = int(value)
    return bytes(out), np.asarray(block_offsets, dtype=np.int64)


def decode_neighbors(
    source: int,
    payload: np.ndarray,
    block_offsets: np.ndarray,
    degree: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Decode a full neighbor list previously built by :func:`encode_neighbors`."""
    result = np.empty(degree, dtype=np.int64)
    written = 0
    for j, pos in enumerate(block_offsets):
        count = min(block_size, degree - j * block_size)
        written += _decode_block_into(
            source, payload, int(pos), count, result, written
        )
    if written != degree:
        raise CompressionError(
            f"decoded {written} neighbors for a degree-{degree} vertex"
        )
    return result


def _decode_block_into(
    source: int,
    payload: np.ndarray,
    pos: int,
    count: int,
    out: np.ndarray,
    out_pos: int,
) -> int:
    """Decode ``count`` neighbors of one block into ``out[out_pos:]``."""
    value, pos = _varint_read(payload, pos)
    current = source + _zigzag_decode(value)
    out[out_pos] = current
    for k in range(1, count):
        gap, pos = _varint_read(payload, pos)
        current += gap + 1
        out[out_pos + k] = current
    return count


class CompressedGraph:
    """A whole graph in the parallel-byte compressed CSR format.

    The layout is flat: one shared byte payload, per-vertex payload offsets,
    and a flat array of per-block offsets (relative to the vertex payload)
    with a per-vertex index into it.  This matches Ligra+'s memory layout in
    spirit: decoding any block needs only ``(source, block offset, count)``.
    """

    __slots__ = (
        "payload",
        "vertex_offsets",
        "block_offsets",
        "block_index",
        "degrees_array",
        "block_size",
        "weights",
    )

    def __init__(
        self,
        payload: np.ndarray,
        vertex_offsets: np.ndarray,
        block_offsets: np.ndarray,
        block_index: np.ndarray,
        degrees_array: np.ndarray,
        block_size: int,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.payload = payload
        self.vertex_offsets = vertex_offsets
        self.block_offsets = block_offsets
        self.block_index = block_index
        self.degrees_array = degrees_array
        self.block_size = block_size
        self.weights = weights

    # ------------------------------------------------------------ size facts
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.degrees_array.size

    @property
    def num_edges(self) -> int:
        """Undirected edge count ``m``."""
        return int(self.degrees_array.sum()) // 2

    def size_in_bytes(self) -> int:
        """Total bytes of the compressed structure (payload + offsets)."""
        total = self.payload.nbytes + self.vertex_offsets.nbytes
        total += self.block_offsets.nbytes + self.block_index.nbytes
        total += self.degrees_array.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    # -------------------------------------------------------------- accessors
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees (stored uncompressed for O(1) access)."""
        return self.degrees_array

    def neighbors(self, u: int) -> np.ndarray:
        """Decode and return ``u``'s full neighbor list."""
        degree = int(self.degrees_array[u])
        if degree == 0:
            return np.empty(0, dtype=np.int64)
        base = self.vertex_offsets[u]
        blocks = self.block_offsets[self.block_index[u] : self.block_index[u + 1]]
        return decode_neighbors(
            u, self.payload, base + blocks, degree, self.block_size
        )

    def ith_neighbor(self, u: int, i: int) -> int:
        """Fetch the ``i``-th neighbor by decoding only its block.

        This is the operation the paper tunes block size for: larger blocks
        compress better but make point lookups decode more entries.
        """
        degree = int(self.degrees_array[u])
        if i < 0 or i >= degree:
            raise IndexError(f"vertex {u} has no neighbor index {i}")
        block_id, within = divmod(i, self.block_size)
        pos = int(
            self.vertex_offsets[u]
            + self.block_offsets[self.block_index[u] + block_id]
        )
        value, pos = _varint_read(self.payload, pos)
        current = u + _zigzag_decode(value)
        for _ in range(within):
            gap, pos = _varint_read(self.payload, pos)
            current += gap + 1
        return current

    def ith_neighbors(self, vertices: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Vectorized point lookups (loop per element; decoding is scalar)."""
        out = np.empty(len(vertices), dtype=np.int64)
        for k in range(len(vertices)):
            out[k] = self.ith_neighbor(int(vertices[k]), int(indices[k]))
        return out

    # ------------------------------------------------------------- conversion
    def decompress(self, *, vectorized: bool = True) -> CSRGraph:
        """Rebuild the uncompressed :class:`CSRGraph` (the block decoder
        E14 times); every call decodes afresh.

        ``vectorized=True`` (default) decodes every varint in the payload in
        bulk numpy passes; ``vectorized=False`` decodes vertex by vertex (the
        reference path the property tests compare against).
        """
        n = self.num_vertices
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees_array, out=offsets[1:])
        if vectorized and offsets[-1] > 0:
            targets = _bulk_decode(self)
        else:
            targets = np.empty(offsets[-1], dtype=np.int64)
            for u in range(n):
                targets[offsets[u] : offsets[u + 1]] = self.neighbors(u)
        return CSRGraph(offsets, targets, self.weights)

    def __repr__(self) -> str:
        return (
            f"CompressedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"block_size={self.block_size}, bytes={self.size_in_bytes()})"
        )


def _bulk_decode(graph: "CompressedGraph") -> np.ndarray:
    """Decode every neighbor of every vertex in vectorized numpy passes.

    Three stages: (1) decode all varints in the payload at once (group bytes
    by trailing-continuation runs, accumulate 7-bit limbs); (2) map each
    decoded value to its (vertex, block, position); (3) undo the difference
    coding with a segmented cumulative sum that restarts at block heads.
    """
    payload = graph.payload
    if payload.size == 0:
        return np.empty(0, dtype=np.int64)
    bytes_ = payload.astype(np.int64)
    is_last = (bytes_ & _CONTINUE_BIT) == 0
    # Value id of each byte: zero-based running count of completed values.
    value_id = np.zeros(bytes_.size, dtype=np.int64)
    value_id[1:] = np.cumsum(is_last[:-1])
    num_values = int(value_id[-1]) + 1
    # Limb position within its value.
    value_starts = np.zeros(num_values, dtype=np.int64)
    start_positions = np.flatnonzero(np.concatenate(([True], is_last[:-1])))
    value_starts[:] = start_positions
    limb_pos = np.arange(bytes_.size) - value_starts[value_id]
    values = np.zeros(num_values, dtype=np.int64)
    np.add.at(values, value_id, (bytes_ & _PAYLOAD_MASK) << (7 * limb_pos))

    # Stage 2: structural map.  Values appear in vertex order; vertex u with
    # degree d contributes d values; block heads sit at positions that are
    # multiples of block_size within the vertex.
    degrees = graph.degrees_array
    total = int(degrees.sum())
    if total != num_values:
        raise CompressionError(
            f"payload decoded to {num_values} values, expected {total}"
        )
    vertices = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
    vertex_offsets = np.zeros(graph.num_vertices, dtype=np.int64)
    np.cumsum(degrees[:-1], out=vertex_offsets[1:])
    within_vertex = np.arange(total) - vertex_offsets[vertices]
    is_head = within_vertex % graph.block_size == 0

    # Stage 3: segmented un-delta.  Heads decode to absolute neighbor ids via
    # zigzag relative to the source; tails are gaps minus one.
    head_values = vertices + ((values >> 1) ^ -(values & 1))
    deltas = np.where(is_head, head_values, values + 1)
    running = np.cumsum(deltas)
    head_positions = np.flatnonzero(is_head)
    head_base = running[head_positions] - deltas[head_positions]
    segment_id = np.cumsum(is_head) - 1
    return running - head_base[segment_id]


def compress_graph(
    graph: CSRGraph, block_size: int = DEFAULT_BLOCK_SIZE
) -> CompressedGraph:
    """Compress ``graph`` into the parallel-byte format.

    Neighbor lists must be strictly increasing (guaranteed by the builders).
    """
    if block_size <= 0:
        raise CompressionError(f"block_size must be positive, got {block_size}")
    n = graph.num_vertices
    degrees = graph.degrees().astype(np.int64)
    payload = bytearray()
    vertex_offsets = np.zeros(n, dtype=np.int64)
    block_index = np.zeros(n + 1, dtype=np.int64)
    all_blocks: List[np.ndarray] = []
    for u in range(n):
        vertex_offsets[u] = len(payload)
        encoded, blocks = encode_neighbors(u, graph.neighbors(u), block_size)
        payload.extend(encoded)
        all_blocks.append(blocks)
        block_index[u + 1] = block_index[u] + blocks.size
    flat_blocks = (
        np.concatenate(all_blocks)
        if all_blocks and block_index[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return CompressedGraph(
        payload=np.frombuffer(bytes(payload), dtype=np.uint8),
        vertex_offsets=vertex_offsets,
        block_offsets=flat_blocks,
        block_index=block_index,
        degrees_array=degrees,
        block_size=block_size,
        weights=None if graph.weights is None else graph.weights.copy(),
    )


def compression_ratio(graph: CSRGraph, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Compressed bytes divided by uncompressed CSR bytes (< 1 is a win)."""
    compressed = compress_graph(graph, block_size).size_in_bytes()
    raw = graph.offsets.nbytes + graph.targets.nbytes
    if graph.weights is not None:
        raw += graph.weights.nbytes
    return compressed / raw


def permute_vertices(graph: CSRGraph, permutation: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of old vertex ``u`` is ``permutation[u]``.

    ``permutation`` must be a bijection on ``range(n)``.
    """
    n = graph.num_vertices
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.shape != (n,):
        raise GraphConstructionError(
            f"permutation must have length {n}, got {permutation.shape}"
        )
    if not np.array_equal(np.sort(permutation), np.arange(n)):
        raise GraphConstructionError("permutation is not a bijection on range(n)")
    src, dst = graph.edge_endpoints()
    mask = src < dst
    wts = graph.weights[mask] if graph.weights is not None else None
    return from_edges(
        permutation[src[mask]],
        permutation[dst[mask]],
        wts,
        num_vertices=n,
        symmetrize=True,
    )


def reorder_by_degree(graph: CSRGraph, *, descending: bool = True) -> Tuple[CSRGraph, np.ndarray]:
    """Relabel vertices by degree (hubs first by default).

    Returns ``(relabeled_graph, permutation)`` with
    ``permutation[old_id] = new_id``.  On skewed graphs this shrinks the
    parallel-byte compressed size because high-degree vertices land on small
    ids and gap codes get shorter.
    """
    degrees = graph.degrees()
    order = np.lexsort((np.arange(graph.num_vertices), -degrees if descending else degrees))
    permutation = np.empty(graph.num_vertices, dtype=np.int64)
    permutation[order] = np.arange(graph.num_vertices)
    return permute_vertices(graph, permutation), permutation
