"""Graph substrate: CSR storage, builders, walks and graph algorithms.

This subpackage is the Python reproduction of the paper's GBBS layer
(Section 4.1): one container, the compressed-sparse-row :class:`CSRGraph`
(memmapped from disk by :mod:`repro.graph.io`'s CSR v2 format when the graph
should stay out of anonymous memory), and a vectorized random-walk engine.
"""

from repro.graph.csr import CSRGraph
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
