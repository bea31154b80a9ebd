"""Parallel sparsifier construction (paper Sections 3.2 and 4.2).

Pipeline: one stage body (:func:`repro.sparsifier.builder.build_sparsifier`)
runs degree-based edge **downsampling** probabilities → per-edge
**PathSampling** (Algorithms 1 and 2) as a stream: each slab is sort-reduced
where it is produced and the runs are merged in slab order
(**aggregation**) into the count matrix behind the trunc-log **NetMF matrix
estimator** factorized downstream.
"""

from repro.sparsifier.downsampling import downsampling_probabilities
from repro.sparsifier.path_sampling import (
    PathSamplingConfig,
    path_sample_pairs,
    per_draw_samples,
    sample_sparsifier_edges,
)
from repro.sparsifier.hashtable import SparseParallelHashTable, hash_partition
from repro.sparsifier.aggregation import (
    aggregate_dict,
    aggregate_hash,
    aggregate_hash_sharded,
    aggregate_histogram,
    aggregate_sort,
)
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
    "SparseParallelHashTable",
    "hash_partition",
    "aggregate_dict",
    "aggregate_hash",
    "aggregate_hash_sharded",
    "aggregate_histogram",
    "aggregate_sort",
    "SparsifierResult",
    "aggregate_sample_counts",
    "sparsifier_to_netmf_matrix",
    "validate_sparsifier_graph",
    "build_sparsifier",
]
