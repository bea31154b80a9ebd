"""repro — a Python reproduction of LightNE (SIGMOD 2021).

LightNE is a lightweight, CPU-only network-embedding system combining
NetSMF's sampled sparsification of the DeepWalk matrix (with a new
degree-based edge-downsampling step) and ProNE's Chebyshev spectral
propagation, on top of a CSR graph-processing substrate.

Quickstart
----------
>>> from repro import dcsbm_graph, lightne_embedding, LightNEParams
>>> graph, labels = dcsbm_graph(500, 5, avg_degree=12, seed=0)
>>> result = lightne_embedding(graph, LightNEParams(dimension=32), seed=0)
>>> result.vectors.shape
(500, 32)
"""

from repro.errors import (
    DatasetError,
    EvaluationError,
    FactorizationError,
    GraphConstructionError,
    GraphFormatError,
    HashTableFullError,
    MethodParameterError,
    ReproError,
    SamplingError,
    UnknownMethodError,
)
from repro.graph import (
    CSRGraph,
    barabasi_albert_graph,
    dcsbm_graph,
    erdos_renyi_graph,
    from_edges,
    from_scipy,
    rmat_graph,
    to_scipy,
)
from repro.embedding import (
    DeepWalkSGDParams,
    EmbeddingResult,
    GraRepParams,
    HOPEParams,
    LINEParams,
    LightNEParams,
    MethodSpec,
    NRPParams,
    NetMFParams,
    Node2VecParams,
    PBGParams,
    ProNEParams,
    deepwalk_sgd_embedding,
    get_method,
    grarep_embedding,
    hope_embedding,
    lightne_embedding,
    line_embedding,
    list_methods,
    make_params,
    method_names,
    netmf_embedding,
    netsmf_embedding,
    node2vec_embedding,
    nrp_embedding,
    pbg_embedding,
    prone_embedding,
    run_method,
)
from repro.streaming import DynamicEmbedder, RefreshPolicy, edge_stream_from_graph
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    link_prediction_auc,
    train_test_split_edges,
)
from repro.datasets import load_dataset, dataset_names
from repro.systems import estimate_cost
from repro import telemetry

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphFormatError",
    "GraphConstructionError",
    "SamplingError",
    "HashTableFullError",
    "FactorizationError",
    "EvaluationError",
    "DatasetError",
    "UnknownMethodError",
    "MethodParameterError",
    # graphs
    "CSRGraph",
    "from_edges",
    "from_scipy",
    "to_scipy",
    "dcsbm_graph",
    "rmat_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    # embeddings
    "EmbeddingResult",
    "LightNEParams",
    "lightne_embedding",
    "netsmf_embedding",
    "ProNEParams",
    "prone_embedding",
    "NetMFParams",
    "netmf_embedding",
    "LINEParams",
    "line_embedding",
    "DeepWalkSGDParams",
    "deepwalk_sgd_embedding",
    "PBGParams",
    "pbg_embedding",
    "NRPParams",
    "nrp_embedding",
    "Node2VecParams",
    "node2vec_embedding",
    "GraRepParams",
    "grarep_embedding",
    "HOPEParams",
    "hope_embedding",
    # method registry
    "MethodSpec",
    "get_method",
    "list_methods",
    "make_params",
    "method_names",
    "run_method",
    # streaming (paper §6 future work)
    "DynamicEmbedder",
    "RefreshPolicy",
    "edge_stream_from_graph",
    # evaluation
    "evaluate_node_classification",
    "evaluate_link_prediction",
    "link_prediction_auc",
    "train_test_split_edges",
    # datasets & systems
    "load_dataset",
    "dataset_names",
    "estimate_cost",
    # observability
    "telemetry",
]
