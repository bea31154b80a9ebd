"""Graph substrate: CSR storage, Ligra+-style compression, builders and walks.

This subpackage is the Python reproduction of the paper's GBBS/Ligra+ layer
(Section 4.1): a compressed sparse-row graph with bulk functional primitives
(`map_edges`, `map_vertices`), parallel-byte difference-encoded adjacency
lists, and a vectorized random-walk engine.
"""

from repro.graph.csr import CSRGraph
from repro.graph.compression import CompressedGraph, GraphLike, compress_graph
from repro.graph.builders import (
    from_bipartite_edges,
    from_edges,
    from_scipy,
    to_scipy,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    dcsbm_graph,
    erdos_renyi_graph,
    rmat_graph,
)
from repro.graph.walks import random_walk_matrix_sample, step_random_walk
from repro.graph.algorithms import (
    bfs,
    connected_components,
    kcore_decomposition,
    pagerank,
    triangle_count,
)
from repro.graph.transforms import (
    add_edges,
    induced_subgraph,
    permute_vertices,
    remove_edges,
    reorder_by_degree,
)
from repro.graph.partition import (
    bfs_partition,
    embed_partitioned,
    partition_edge_cut,
)
from repro.graph import io as graph_io

__all__ = [
    "bfs",
    "connected_components",
    "pagerank",
    "triangle_count",
    "kcore_decomposition",
    "add_edges",
    "remove_edges",
    "induced_subgraph",
    "permute_vertices",
    "reorder_by_degree",
    "bfs_partition",
    "embed_partitioned",
    "partition_edge_cut",
    "CSRGraph",
    "CompressedGraph",
    "GraphLike",
    "compress_graph",
    "from_bipartite_edges",
    "from_edges",
    "from_scipy",
    "to_scipy",
    "barabasi_albert_graph",
    "dcsbm_graph",
    "erdos_renyi_graph",
    "rmat_graph",
    "random_walk_matrix_sample",
    "step_random_walk",
    "graph_io",
]
