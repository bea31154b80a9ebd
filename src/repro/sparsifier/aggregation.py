"""Edge-sample aggregation strategies (paper Section 4.2).

The paper considered several ways to count how often each distinct edge is
sampled: per-processor lists merged by GBBS's sparse histogram (a semisort),
per-processor hash tables merged periodically, and a single shared sparse
parallel hash table — the last being fastest and most memory-efficient on
their 88-thread hardware with a lock-free ``xadd`` table, because samples
are reduced as they are produced and memory follows the distinct entries.
Our table is a numpy emulation that pays for a sort (``np.unique``) per
batch *and* the probe rounds on top, so the measured winner here is the
sort-reduce kernel (benchmarks/perf: 0.24 s vs 2.0 s on ``sample_heavy``).
The production path keeps the paper's property with that kernel — every
sampling slab is reduced where it is produced and the reduced runs are
merged as they arrive:

* :func:`reduce_pairs` — one slab's samples as a *run*: canonical
  ``min·n + max`` keys (:func:`sort_reduce`: ``np.unique`` ranks the keys,
  ``np.bincount`` adds each key's values in stream order);
* :func:`merge_runs` — the ordered fold of the runs into the reduced upper
  triangle, in key order: a CSR matrix up to its ``indptr``.

The per-draw aggregators take any ``(rows, cols, values)`` stream; the hash
variants stay as the §4.2 ablation (E12/E15):

* :func:`aggregate_sort` — :func:`sort_reduce` on row-major keys;
* :func:`aggregate_hash` — the shared :class:`SparseParallelHashTable`;
* :func:`aggregate_hash_sharded` — per-processor tables over a hash
  partition of the key space, built concurrently (the paper's second
  alternative);
* :func:`aggregate_histogram` — per-processor lists + sparse histogram;
* :func:`aggregate_dict` — plain Python dict (reference implementation used
  by the tests as ground truth).

All return identical ``(rows, cols, values)`` triples up to ordering and
reject indices outside ``[0, n)`` (and an ``n`` whose packed ``row*n+col``
key would overflow int64) with :class:`~repro.errors.SamplingError`.  The
sort and hash aggregators accept an optional ``stats`` dict that receives
``peak_table_bytes`` (the table backing arrays the paper's §5.2.4 memory
model tracks; for the sort kernel and the run fold, their live workspace)
and ``distinct``.

Determinism contract
--------------------
Stated here once.  :func:`sort_reduce` (hence :func:`aggregate_sort` and
every run) gives a key the sequential sum, from 0.0, of its values in stream
order — what :func:`aggregate_dict` computes.  :func:`merge_runs` consumes
runs in slab order and folds when the runs set aside outgrow the running
reduction — a function of the run lengths alone — adding a key's entries in
run order within a fold; so for a fixed ``(seed, batch_size)`` a key's value
is one fixed expression over its samples, whatever the worker count or the
order in which slabs finish.  :func:`aggregate_hash` and
:func:`aggregate_hash_sharded` sum in stream order *within* each of their
``batch_size`` (1 000 000) slices and then add the per-batch partial sums:
on per-draw streams they equal the sort kernel bit for bit up to one batch
and re-associate above that (last-digit differences).  On the sampler's
reduced stream, which the ``"sparsifier"`` stage assembles without any of
them, every key occurs once and each returns ``0.0 + x == x``
(``tests/test_sparsifier_builder.py::test_replay_contract``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import SamplingError
from repro.graph.builders import pair_keys_fit
from repro.sparsifier.hashtable import SparseParallelHashTable, hash_partition
from repro.utils.parallel import default_workers, parallel_map

Triple = Tuple[np.ndarray, np.ndarray, np.ndarray]
# Packed keys, strictly increasing, and the sum of each key's samples.
Run = Tuple[np.ndarray, np.ndarray]


def _check_packable(n: int) -> None:
    if not pair_keys_fit(n):
        raise SamplingError(f"n={n}: packed row*n+col keys overflow int64")


def _as_arrays(rows, cols, values, n: int) -> Triple:
    """Coerce the sample triple and check every ``row*n+col`` key is exact."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols and values must be parallel arrays")
    _check_packable(n)
    if rows.size and (
        min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n
    ):
        raise SamplingError(f"sample indices outside [0, {n})")
    return rows, cols, values


def aggregate_hash(
    rows,
    cols,
    values,
    n: int,
    *,
    batch_size: int = 1_000_000,
    stats: Optional[Dict[str, float]] = None,
) -> Triple:
    """Aggregate with the shared sparse parallel hash table (paper's choice)."""
    rows, cols, values = _as_arrays(rows, cols, values, n)
    with telemetry.span("aggregate.hash", samples=int(rows.size)):
        table = SparseParallelHashTable(capacity_hint=max(1024, rows.size // 4))
        for start in range(0, rows.size, batch_size):
            stop = start + batch_size
            table.add_pairs(
                rows[start:stop], cols[start:stop], values[start:stop], n
            )
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
    resolves to :func:`repro.utils.parallel.default_workers`.
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

    def build_shard(shard: int, shard_keys: np.ndarray, shard_values: np.ndarray):
        with telemetry.span("aggregate.shard", shard=shard, keys=int(shard_keys.size)):
            table = SparseParallelHashTable(capacity_hint=max(64, shard_keys.size // 4))
            for start in range(0, shard_keys.size, batch_size):
                stop = start + batch_size
                table.add_batch(shard_keys[start:stop], shard_values[start:stop])
        out_keys, out_values = table.items()
        return out_keys, out_values, (
            table.size_in_bytes(), len(table), table.total_probe_rounds
        )

    args = []
    for shard in range(num_shards):
        members = shard_of == shard
        args.append((shard, keys[members], values[members]))
    shard_items = parallel_map(build_shard, args, workers=workers)
    keys = np.concatenate([item[0] for item in shard_items])
    values = np.concatenate([item[1] for item in shard_items])
    if stats is not None:
        shard_bytes = sum(item[2][0] for item in shard_items)
        stats["peak_table_bytes"] = shard_bytes
        stats["shard_table_bytes"] = shard_bytes
        stats["num_shards"] = num_shards
        stats["distinct"] = int(keys.size)
        stats["probe_rounds"] = sum(item[2][2] for item in shard_items)
    return keys // n, keys % n, values


def sort_reduce(keys: np.ndarray, values: np.ndarray) -> Run:
    """The sort-reduce kernel on packed keys: the distinct keys in increasing
    order, each with the sequential sum, from 0.0, of its values in stream
    order (the sort only ranks keys; ``np.bincount`` adds in input order)."""
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=unique_keys.size)
    # np.bincount ignores the weights' dtype when empty.
    return unique_keys, sums.astype(np.float64, copy=False)


def aggregate_sort(
    rows, cols, values, n: int, *, stats: Optional[Dict[str, float]] = None
) -> Triple:
    """Sort-reduce aggregation: sort packed keys, sum each run in stream order.

    Returns the distinct pairs in strictly increasing row-major key order —
    a CSR matrix up to its ``indptr``.  ``stats`` receives ``distinct`` and
    ``peak_table_bytes`` (packed keys, inverse, unique keys and sums: the
    workspace live at the peak).
    """
    rows, cols, values = _as_arrays(rows, cols, values, n)
    keys = rows * np.int64(n)
    keys += cols
    unique_keys, sums = sort_reduce(keys, values)
    if stats is not None:
        stats["peak_table_bytes"] = (
            2 * keys.nbytes + unique_keys.nbytes + sums.nbytes
        )
        stats["distinct"] = int(unique_keys.size)
    return unique_keys // n, unique_keys % n, sums


def reduce_pairs(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int
) -> Run:
    """One slab of samples as a run: canonical ``min·n + max`` keys (the
    sampling law is symmetric, so one triangle carries it), sort-reduced."""
    keys = np.minimum(rows, cols)
    keys *= np.int64(n)
    keys += np.maximum(rows, cols)
    return sort_reduce(keys, values)


def _fold(runs: List[Run]) -> Run:
    """Merge runs into one (empties ``runs``): concatenate, stable-sort,
    add each key's entries in run order.  Every operand is dropped as soon
    as it has been gathered, so about four key-sized arrays are live at
    once whatever the number of runs."""
    filled = [run for run in runs if run[0].size] or runs[:1]
    runs.clear()
    if len(filled) == 1:
        return filled[0]
    sums = [run_sums for _, run_sums in filled]
    keys = np.concatenate([run_keys for run_keys, _ in filled])
    del filled
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    segment = np.cumsum(first)
    segment -= 1
    del first
    gathered = np.concatenate(sums)[order]
    del sums, order
    return keys, np.bincount(segment, weights=gathered, minlength=keys.size)


def merge_runs(
    runs: Iterable[Run], n: int, *, stats: Optional[Dict[str, float]] = None
) -> Triple:
    """Fold an ordered stream of runs into the reduced triangle.

    A run is ``(keys, sums)`` with strictly increasing packed keys — what
    :func:`reduce_pairs` returns.  Runs are consumed one at a time and set
    aside until together they outgrow the running reduction, then folded
    into it; each fold costs about what it absorbs, so the total stays
    ``O(N log N)`` in the summed run lengths while at most the reduction,
    as much again of pending runs and one fold's workspace are resident.
    When a fold happens depends only on the run lengths, so a key's value
    is a fixed function of the run sequence: within a fold its entries are
    added in run order.

    Returns ``(rows, cols, sums)`` with ``rows <= cols``, distinct and in
    increasing key order.  ``stats`` receives ``distinct`` and
    ``peak_table_bytes`` — the most this reducer held at once: reduction,
    pending runs and the widest fold's sort workspace.
    """
    _check_packable(n)
    # The running reduction, then the runs set aside since the last fold.
    held: List[Run] = [(np.empty(0, dtype=np.int64), np.empty(0))]
    pending_size = peak_bytes = 0

    def fold() -> None:
        nonlocal held, pending_size, peak_bytes
        # Operands are 16 B an entry; a real merge (the reduction is not
        # empty) adds the sort order and the sorted keys, 8 B each.
        per_entry = 32 if held[0][0].size else 16
        peak_bytes = max(peak_bytes, per_entry * (held[0][0].size + pending_size))
        held = [_fold(held)]
        pending_size = 0

    for run in runs:
        held.append(run)
        pending_size += run[0].size
        if pending_size > held[0][0].size:
            fold()
    if len(held) > 1:
        fold()
    keys, sums = held.pop()
    if stats is not None:
        stats["peak_table_bytes"] = peak_bytes
        stats["distinct"] = int(keys.size)
    rows, cols = np.divmod(keys, np.int64(n))
    return rows, cols, sums


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


def aggregate_dict(rows, cols, values, n: int) -> Triple:
    """Reference dict-of-floats aggregation (slow, obviously correct)."""
    rows, cols, values = _as_arrays(rows, cols, values, n)
    table: Dict[int, float] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        key = r * n + c
        table[key] = table.get(key, 0.0) + v
    if not table:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0)
    keys = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
    sums = np.fromiter(table.values(), dtype=np.float64, count=len(table))
    return keys // n, keys % n, sums
