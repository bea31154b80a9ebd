"""Memory accounting for the sample-size ablation (paper §5.2.4).

The paper attributes LightNE's larger affordable sample budget (20·T·m vs
NetSMF's 8·T·m under 1.5 TB) to three factors: compressed GBBS, the
downsampling, and the shared hash table (vs NetSMF's per-thread sparsifiers
merged at the end).  This module provides byte-level estimators for each
representation so benchmark E6 can replay the "how many samples fit" math at
any memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError

BYTES_PER_OFFSET = 8
BYTES_PER_TARGET = 8  # our numpy CSR stores int64 neighbor ids
BYTES_PER_HASH_SLOT = 8 + 8  # int64 key + float64 value
BYTES_PER_LIST_ENTRY = 8 + 8 + 8  # (u, v, weight) triple in a per-thread list


def csr_bytes(num_vertices: int, num_directed_edges: int) -> int:
    """Uncompressed CSR footprint."""
    _check_nonneg(num_vertices=num_vertices, num_directed_edges=num_directed_edges)
    return (num_vertices + 1) * BYTES_PER_OFFSET + num_directed_edges * BYTES_PER_TARGET


def hash_table_bytes(distinct_entries: int, *, max_load: float = 0.5) -> int:
    """Shared-hash-table footprint for ``distinct_entries`` sparsifier entries.

    Slot count is the next power of two above ``distinct / max_load``
    (matching :class:`~repro.sparsifier.hashtable.SparseParallelHashTable`).
    """
    _check_nonneg(distinct_entries=distinct_entries)
    if not 0.0 < max_load < 1.0:
        raise EvaluationError(f"max_load must be in (0, 1), got {max_load}")
    slots = 8
    while slots * max_load < distinct_entries:
        slots <<= 1
    return slots * BYTES_PER_HASH_SLOT


def per_thread_list_bytes(total_samples: int) -> int:
    """NetSMF-style footprint: every sample buffered as an (u, v, w) triple
    in per-thread lists before the merge — grows with *samples*, not with
    *distinct* entries, which is exactly why it hits the memory wall first."""
    _check_nonneg(total_samples=total_samples)
    return total_samples * BYTES_PER_LIST_ENTRY


@dataclass(frozen=True)
class MemoryBudget:
    """A RAM budget in bytes (construct from GiB for readability)."""

    bytes_total: int

    @staticmethod
    def from_gib(gib: float) -> "MemoryBudget":
        """E.g. ``MemoryBudget.from_gib(1536)`` for the paper's 1.5 TB box."""
        if gib <= 0:
            raise EvaluationError(f"budget must be positive, got {gib}")
        return MemoryBudget(int(gib * (1 << 30)))


def max_affordable_samples(
    budget: MemoryBudget,
    graph_bytes: int,
    *,
    strategy: str,
    distinct_ratio: float = 0.5,
) -> int:
    """How many samples fit in ``budget`` under an aggregation ``strategy``.

    Parameters
    ----------
    strategy:
        ``"shared_hash"`` — memory scales with *distinct* entries
        (``distinct_ratio`` × samples, saturating); ``"thread_lists"`` —
        memory scales linearly with samples (NetSMF).
    distinct_ratio:
        Expected distinct-entries-per-sample ratio (duplicates collapse in
        the hash table; downsampling lowers this further).
    """
    if strategy not in ("shared_hash", "thread_lists"):
        raise EvaluationError(f"unknown strategy {strategy!r}")
    if not 0.0 < distinct_ratio <= 1.0:
        raise EvaluationError(
            f"distinct_ratio must be in (0, 1], got {distinct_ratio}"
        )
    available = budget.bytes_total - graph_bytes
    if available <= 0:
        return 0
    if strategy == "thread_lists":
        return available // BYTES_PER_LIST_ENTRY
    # Shared hash: solve samples s.t. table(distinct_ratio * samples) fits.
    # Table size is a step function; binary search the largest feasible count.
    low, high = 0, max(1, available // 2)
    while hash_table_bytes(int(high * distinct_ratio)) <= available:
        high *= 2
    while low < high:
        mid = (low + high + 1) // 2
        if hash_table_bytes(int(mid * distinct_ratio)) <= available:
            low = mid
        else:
            high = mid - 1
    return low


def _check_nonneg(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise EvaluationError(f"{name} must be >= 0, got {value}")
