"""Shared utilities: RNG handling, validation, chunked parallelism, tables."""

from repro.utils.rng import ensure_rng, spawn_batch_rngs, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_square_sparse,
)
from repro.utils.parallel import chunk_ranges, default_workers, parallel_map
from repro.utils.table import format_table

__all__ = [
    "ensure_rng",
    "spawn_batch_rngs",
    "spawn_rngs",
    "check_fraction",
    "check_positive",
    "check_square_sparse",
    "chunk_ranges",
    "default_workers",
    "parallel_map",
    "format_table",
]
