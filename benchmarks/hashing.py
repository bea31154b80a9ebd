"""Sparse parallel hash table and the §4.2 aggregators built on it — the
fixture benchmarks E12 and E15 measure.

The paper aggregates sampled edges in a single shared, lock-free,
open-addressing hash table with linear probing; counts are accumulated with
the hardware ``xadd`` atomic.  :class:`SparseParallelHashTable` reproduces
the data structure's semantics in numpy:

* open addressing with linear probing over a power-of-two slot array;
* 64-bit keys packing an ``(u, v)`` pair (``u * n + v``);
* batched *vectorized* inserts: each batch resolves all probes in parallel
  (the analog of many threads inserting concurrently), with collisions within
  a batch resolved by a scatter-add — the numpy stand-in for ``xadd``;
* no deletions (the workload never needs them — see Section 4.2);
* exact counts: every sample is accounted for, as the paper stresses.

The table grows by rehashing when load factor exceeds ``max_load``.

Around it sit the three alternatives §4.2 weighed, each taking any
``(rows, cols, values)`` stream as :func:`repro.sparsifier.aggregation.aggregate_sort`
does (same input guard, same triple out, up to order):

* :func:`aggregate_hash` — the shared table (the paper's choice);
* :func:`aggregate_hash_sharded` — per-processor tables over a
  :func:`hash_partition` of the key space, built on the thread pool;
* :func:`aggregate_histogram` — per-processor lists merged by a sparse
  histogram (NetSMF's per-thread sample lists).

The library keeps one aggregation path: the sampler sort-reduces each slab
where it is drawn and merges the runs (:mod:`repro.sparsifier.aggregation`),
and the ``aggregator`` names are validated and recorded, selecting no code.
In numpy a table pays for a sort (``np.unique``) per batch *and* the probe
rounds on top, so the sort-reduce kernel wins (EXPERIMENTS.md E12).

Determinism: :func:`aggregate_hash` and :func:`aggregate_hash_sharded` sum
in stream order *within* each of their ``batch_size`` (1 000 000) slices and
then add the per-batch partial sums — on per-draw streams they equal the
sort kernel bit for bit up to one batch and re-associate above that
(last-digit differences).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.sparsifier.aggregation import Triple, _as_arrays, aggregate_sort
from repro.utils.parallel import default_workers, parallel_map

_EMPTY = np.int64(-1)
# Fibonacci hashing multiplier (2^64 / golden ratio, as an odd constant).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class HashTableFullError(ReproError):
    """The open-addressing hash table ran out of free slots."""


def _hash_keys(keys: np.ndarray, mask: np.uint64) -> np.ndarray:
    """Multiplicative hash of int64 keys onto the slot space ``[0, mask]``."""
    h = keys.astype(np.uint64) * _HASH_MULT
    h ^= h >> np.uint64(29)
    return (h & mask).astype(np.int64)


def hash_partition(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each key to one of ``num_partitions`` shards by hash.

    Uses the same multiplicative mix as the table's probe hash but folds the
    *high* bits onto the shard space, so shard choice is nearly independent of
    the slot a key probes inside its shard's table.  Used by
    :func:`aggregate_hash_sharded`.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    keys = np.asarray(keys, dtype=np.int64)
    h = keys.astype(np.uint64) * _HASH_MULT
    h ^= h >> np.uint64(29)
    return ((h >> np.uint64(33)) % np.uint64(num_partitions)).astype(np.int64)


class SparseParallelHashTable:
    """Open-addressing (key → float accumulator) table with batch inserts.

    Parameters
    ----------
    capacity_hint:
        Expected number of distinct keys; the slot array starts at the next
        power of two above ``capacity_hint / max_load``.
    max_load:
        Grow when ``distinct / slots`` exceeds this (default 0.5, typical for
        linear probing).
    """

    def __init__(
        self,
        capacity_hint: int = 1024,
        *,
        max_load: float = 0.5,
        compact: bool = False,
    ) -> None:
        if capacity_hint < 1:
            raise ValueError(f"capacity_hint must be >= 1, got {capacity_hint}")
        if not 0.0 < max_load < 1.0:
            raise ValueError(f"max_load must be in (0, 1), got {max_load}")
        self.max_load = max_load
        # ``compact`` implements the paper's §6 future-work direction
        # ("designing efficient compression techniques for these data
        # structures"): int32 keys + float32 accumulators halve the
        # footprint when the packed key space fits in 31 bits.
        self.compact = compact
        self._key_dtype = np.int32 if compact else np.int64
        self._value_dtype = np.float32 if compact else np.float64
        slots = 1
        while slots * max_load < capacity_hint:
            slots <<= 1
        slots = max(slots, 8)
        self._keys = np.full(slots, _EMPTY, dtype=self._key_dtype)
        self._values = np.zeros(slots, dtype=self._value_dtype)
        self._count = 0
        # Probe accounting (the aggregators' ``probe_rounds`` stat):
        # linear-probing rounds executed per unique-insert call, accumulated
        # over the table's lifetime.  One "round" advances every
        # still-unplaced key by one slot, so rounds bound the worst-case
        # probe length of that batch.
        self.total_probe_rounds = 0

    # ------------------------------------------------------------------ sizes
    @property
    def num_slots(self) -> int:
        """Current slot-array length (a power of two)."""
        return self._keys.size

    def __len__(self) -> int:
        """Number of distinct keys stored."""
        return self._count

    @property
    def load_factor(self) -> float:
        """``distinct keys / slots``."""
        return self._count / self._keys.size

    def size_in_bytes(self) -> int:
        """Backing-array memory footprint."""
        return self._keys.nbytes + self._values.nbytes

    # ---------------------------------------------------------------- inserts
    def add_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Accumulate ``values`` into the slots of ``keys`` (duplicates sum).

        This is the bulk-parallel insert: duplicates *within* the batch are
        merged by a sort-free scatter-add (the ``xadd`` analog) and new keys
        are placed by vectorized linear probing rounds.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must be parallel arrays")
        if keys.size == 0:
            return
        if np.any(keys < 0):
            raise ValueError("keys must be non-negative (≥1 slot sentinel is -1)")
        # int32 can represent every key up to 2^31 - 1; only the sentinel -1
        # is reserved, so reject strictly-larger keys only.
        if self.compact and keys.max() > 2**31 - 1:
            raise ValueError(
                "compact table holds int32 keys; packed key exceeds 2^31 - 1"
            )
        keys = keys.astype(self._key_dtype, copy=False)
        values = values.astype(self._value_dtype, copy=False)
        # Pre-merge duplicates within the batch so probing sees unique keys.
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(unique_keys.size, dtype=np.float64)
        np.add.at(merged, inverse, values)  # the atomic-xadd analog
        self._ensure_capacity(self._count + unique_keys.size)
        self._insert_unique(unique_keys, merged)

    def add_pairs(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int
    ) -> None:
        """Accumulate weighted ``(row, col)`` pairs; keys pack as ``row*n+col``.

        Empty batches are a no-op: a worker whose batch has no surviving
        ``src < dst`` edges (tiny or sparse partitions) must be able to flush
        nothing without tripping the zero-size reductions below.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must be parallel arrays")
        if rows.size == 0:
            return
        if rows.max() >= n or cols.max() >= n:
            raise ValueError("pair indices out of range for given n")
        self.add_batch(rows * np.int64(n) + cols, values)

    def _insert_unique(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Probe-and-place unique ``keys``; assumes capacity is ensured."""
        mask = np.uint64(self._keys.size - 1)
        slots = _hash_keys(keys, mask)
        pending = np.arange(keys.size)
        rounds = 0
        for _ in range(self._keys.size):
            if pending.size == 0:
                self.total_probe_rounds += rounds
                return
            rounds += 1
            slot = slots[pending]
            resident = self._keys[slot]
            # Case 1: slot already holds the key -> accumulate.
            hit = resident == keys[pending]
            if hit.any():
                np.add.at(self._values, slot[hit], values[pending[hit]])
            # Case 2: slot empty -> try to claim.  Batch collisions (two new
            # keys hashing to one empty slot) are detected by electing one
            # winner per slot and retrying the rest.
            empty = resident == _EMPTY
            claim_idx = pending[empty]
            claim_slot = slot[empty]
            if claim_idx.size:
                order = np.argsort(claim_slot, kind="stable")
                claim_slot = claim_slot[order]
                claim_idx = claim_idx[order]
                winner = np.ones(claim_slot.size, dtype=bool)
                winner[1:] = claim_slot[1:] != claim_slot[:-1]
                win_slot = claim_slot[winner]
                win_idx = claim_idx[winner]
                self._keys[win_slot] = keys[win_idx]
                self._values[win_slot] += values[win_idx]
                self._count += win_idx.size
            else:
                winner = np.empty(0, dtype=bool)
            # Everything not hit and not a winning claim probes the next slot.
            done = np.zeros(pending.size, dtype=bool)
            done[hit] = True
            if claim_idx.size:
                empty_positions = np.flatnonzero(empty)[order]
                done[empty_positions[winner]] = True
            pending = pending[~done]
            slots[pending] = (slots[pending] + 1) & np.int64(mask)
        if pending.size:
            raise HashTableFullError(
                "probe sequence exhausted; table unexpectedly full"
            )

    def _ensure_capacity(self, needed: int) -> None:
        """Grow (rehash) until ``needed`` keys fit under ``max_load``."""
        while needed > self.max_load * self._keys.size:
            old_keys = self._keys
            old_values = self._values
            occupied = old_keys != _EMPTY
            self._keys = np.full(old_keys.size * 2, _EMPTY, dtype=self._key_dtype)
            self._values = np.zeros(old_values.size * 2, dtype=self._value_dtype)
            self._count = 0
            if occupied.any():
                self._insert_unique(old_keys[occupied], old_values[occupied])

    # ----------------------------------------------------------------- reads
    def get(self, key: int, default: float = 0.0) -> float:
        """Value stored under ``key`` (``default`` when absent)."""
        mask = np.uint64(self._keys.size - 1)
        slot = int(_hash_keys(np.asarray([key], dtype=np.int64), mask)[0])
        for _ in range(self._keys.size):
            resident = self._keys[slot]
            if resident == key:
                return float(self._values[slot])
            if resident == _EMPTY:
                return default
            slot = (slot + 1) & int(mask)
        return default

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(keys, values)`` as arrays (unspecified order)."""
        occupied = self._keys != _EMPTY
        return self._keys[occupied].copy(), self._values[occupied].copy()

    def to_pairs(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unpack keys back into ``(rows, cols, values)`` given width ``n``."""
        keys, values = self.items()
        return keys // n, keys % n, values


def aggregate_hash(
    rows,
    cols,
    values,
    n: int,
    *,
    batch_size: int = 1_000_000,
    stats: Optional[Dict[str, float]] = None,
) -> Triple:
    """Aggregate with the shared sparse parallel hash table (paper's choice).

    ``stats`` receives ``peak_table_bytes`` (the table's backing arrays, what
    the paper's §5.2.4 memory model tracks), ``distinct`` and
    ``probe_rounds``.
    """
    rows, cols, values = _as_arrays(rows, cols, values, n)
    table = SparseParallelHashTable(capacity_hint=max(1024, rows.size // 4))
    for start in range(0, rows.size, batch_size):
        stop = start + batch_size
        table.add_pairs(rows[start:stop], cols[start:stop], values[start:stop], n)
    if stats is not None:
        stats["peak_table_bytes"] = table.size_in_bytes()
        stats["distinct"] = len(table)
        stats["probe_rounds"] = table.total_probe_rounds
    return table.to_pairs(n)


def aggregate_hash_sharded(
    rows,
    cols,
    values,
    n: int,
    *,
    num_shards: Optional[int] = None,
    workers: Optional[int] = None,
    batch_size: int = 1_000_000,
    stats: Optional[Dict[str, float]] = None,
) -> Triple:
    """Per-processor hash tables over a hash partition of the key space.

    The §4.2 alternative to the single shared table: the packed ``row*n+col``
    keys are partitioned by :func:`hash_partition` into ``num_shards``
    disjoint slices, each slice is accumulated into its own
    :class:`SparseParallelHashTable` (concurrently, on a thread pool, when
    ``workers > 1``), and the shards' items are concatenated in shard order
    (shards are key-disjoint, so there is nothing left to merge).  Because
    shard membership is a pure function of the key, the aggregated key set
    always matches :func:`aggregate_hash`, and for a *fixed* ``num_shards``
    the output is bit-identical for every ``workers`` value.  Varying
    ``num_shards`` can permute the output order and reassociate
    floating-point sums (values then agree only up to rounding).

    ``num_shards`` defaults to the resolved worker count; ``workers=None``
    resolves to :func:`repro.utils.parallel.default_workers`.  ``stats``
    receives what :func:`aggregate_hash` records (summed over the shards)
    plus ``num_shards`` and ``shard_table_bytes``.
    """
    rows, cols, values = _as_arrays(rows, cols, values, n)
    if workers is None:
        workers = default_workers()
    if num_shards is None:
        num_shards = max(1, workers)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if rows.size == 0:
        return rows, cols, values
    keys = rows * np.int64(n) + cols
    shard_of = hash_partition(keys, num_shards)

    def build_shard(shard_keys: np.ndarray, shard_values: np.ndarray):
        table = SparseParallelHashTable(capacity_hint=max(64, shard_keys.size // 4))
        for start in range(0, shard_keys.size, batch_size):
            stop = start + batch_size
            table.add_batch(shard_keys[start:stop], shard_values[start:stop])
        out_keys, out_values = table.items()
        return out_keys, out_values, table.size_in_bytes(), table.total_probe_rounds

    args = []
    for shard in range(num_shards):
        members = shard_of == shard
        args.append((keys[members], values[members]))
    shard_items = parallel_map(build_shard, args, workers=workers)
    keys = np.concatenate([item[0] for item in shard_items])
    values = np.concatenate([item[1] for item in shard_items])
    if stats is not None:
        shard_bytes = sum(item[2] for item in shard_items)
        stats["peak_table_bytes"] = shard_bytes
        stats["shard_table_bytes"] = shard_bytes
        stats["num_shards"] = num_shards
        stats["distinct"] = int(keys.size)
        stats["probe_rounds"] = sum(item[3] for item in shard_items)
    return keys // n, keys % n, values


def aggregate_histogram(
    rows, cols, values, n: int, *, num_partitions: int = 8
) -> Triple:
    """Per-processor lists merged by a sparse histogram (GBBS alternative #1).

    Simulates the first strategy §4.2 considered: each "processor" buffers
    its own list of samples; the merge phase builds a histogram over the
    union.  We partition the stream round-robin (as a work-stealing scheduler
    would), locally sort-reduce each partition, then merge the partial
    histograms.  Results match the other aggregators exactly.
    """
    rows, cols, values = _as_arrays(rows, cols, values, n)
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if rows.size == 0:
        return rows, cols, values
    partials = []
    for start in range(num_partitions):
        sl = slice(start, None, num_partitions)
        if rows[sl].size:
            partials.append(aggregate_sort(rows[sl], cols[sl], values[sl], n))
    merged_rows = np.concatenate([p[0] for p in partials])
    merged_cols = np.concatenate([p[1] for p in partials])
    merged_vals = np.concatenate([p[2] for p in partials])
    return aggregate_sort(merged_rows, merged_cols, merged_vals, n)
