"""Edge-sample aggregation (paper Section 4.2).

The paper counts how often each distinct edge is sampled in a single shared
sparse parallel hash table — fastest and most memory-efficient on their
88-thread hardware with a lock-free ``xadd`` table, because samples are
reduced as they are produced and memory follows the distinct entries.  A
numpy table pays for a sort (``np.unique``) per batch *and* the probe
rounds on top, so the measured winner here is the sort-reduce kernel
(benchmarks/perf: 0.24 s vs 2.0 s on ``sample_heavy``).  The library keeps
the paper's property with that kernel alone — every sampling slab is
reduced where it is produced and the reduced runs are merged as they
arrive:

* :func:`reduce_pairs` — one slab's samples as a *run*: canonical
  ``min·n + max`` keys (:func:`sort_reduce`: ``np.unique`` ranks the keys,
  ``np.bincount`` adds each key's values in stream order);
* :func:`merge_runs` — the ordered fold of the runs into the reduced upper
  triangle, in key order: a CSR matrix up to its ``indptr``.

Two per-draw aggregators take any ``(rows, cols, values)`` stream:

* :func:`aggregate_sort` — :func:`sort_reduce` on row-major keys;
* :func:`aggregate_dict` — plain Python dict (reference implementation used
  by the tests as ground truth).

Both reject indices outside ``[0, n)`` (and an ``n`` whose packed
``row*n+col`` key would overflow int64) with
:class:`~repro.errors.SamplingError`.  :func:`aggregate_sort` and
:func:`merge_runs` accept an optional ``stats`` dict that receives
``peak_table_bytes`` (their live workspace) and ``distinct``.  The
``aggregator`` names (``"sort"``, ``"hash"``, ``"hash-sharded"``) are
validated and recorded, and select no code; the §4.2 hash family — the
shared table, per-processor tables, per-processor lists — is the E12/E15
fixture ``benchmarks/hashing.py``.

Determinism contract
--------------------
Stated here once.  :func:`sort_reduce` (hence :func:`aggregate_sort` and
every run) gives a key the sequential sum, from 0.0, of its values in stream
order — what :func:`aggregate_dict` computes.  :func:`merge_runs` consumes
runs in slab order and folds when the runs set aside outgrow the running
reduction — a function of the run lengths alone — adding a key's entries in
run order within a fold; so for a fixed ``(seed, batch_size)`` a key's value
is one fixed expression over its samples, whatever the worker count or the
order in which slabs finish.  On the sampler's reduced stream every key
occurs once, so :func:`aggregate_sort` returns it unchanged (``0.0 + x ==
x``; ``tests/test_sparsifier_builder.py::test_replay_contract``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.graph.builders import pair_keys_fit

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
