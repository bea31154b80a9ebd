"""Shared utilities: RNG handling, chunked parallelism, tables."""

from repro.utils.rng import ensure_rng, spawn_batch_rngs
from repro.utils.parallel import chunk_ranges, default_workers, parallel_map
from repro.utils.table import format_table

__all__ = [
    "ensure_rng",
    "spawn_batch_rngs",
    "chunk_ranges",
    "default_workers",
    "parallel_map",
    "format_table",
]
