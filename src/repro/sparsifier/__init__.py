"""Parallel sparsifier construction (paper Sections 3.2 and 4.2).

Pipeline: one stage body (:func:`repro.sparsifier.builder.build_sparsifier`)
runs degree-based edge **downsampling** probabilities → per-edge
**PathSampling** (Algorithms 1 and 2) as a stream: each slab is sort-reduced
where it is produced and the runs are merged in slab order
(**aggregation**) into the count matrix behind the trunc-log **NetMF matrix
estimator** factorized downstream.

That sort-reduce path is the one aggregator: the ``aggregator`` names are
validated and recorded, and select no code.  The §4.2 hash family (shared
table, per-processor tables, per-processor lists) is the E12/E15 fixture
``benchmarks/hashing.py``.
"""

from repro.sparsifier.downsampling import downsampling_probabilities
from repro.sparsifier.path_sampling import (
    PathSamplingConfig,
    path_sample_pairs,
    per_draw_samples,
    sample_sparsifier_edges,
)
from repro.sparsifier.aggregation import aggregate_dict, aggregate_sort
from repro.sparsifier.builder import (
    SparsifierResult,
    aggregate_sample_counts,
    build_sparsifier,
    sparsifier_to_netmf_matrix,
    validate_sparsifier_graph,
)

__all__ = [
    "downsampling_probabilities",
    "PathSamplingConfig",
    "path_sample_pairs",
    "per_draw_samples",
    "sample_sparsifier_edges",
    "aggregate_dict",
    "aggregate_sort",
    "SparsifierResult",
    "aggregate_sample_counts",
    "sparsifier_to_netmf_matrix",
    "validate_sparsifier_graph",
    "build_sparsifier",
]
