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
    MethodParameterError,
    ReproError,
    SamplingError,
    UnknownMethodError,
)
from repro.graph import (
    CSRGraph,
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
    LightNEParams,
    MethodSpec,
    NRPParams,
    NetMFParams,
    PBGParams,
    ProNEParams,
    deepwalk_sgd_embedding,
    get_method,
    lightne_embedding,
    list_methods,
    make_params,
    method_names,
    netmf_embedding,
    netsmf_embedding,
    nrp_embedding,
    pbg_embedding,
    prone_embedding,
    run_method,
)
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
    # embeddings
    "EmbeddingResult",
    "LightNEParams",
    "lightne_embedding",
    "netsmf_embedding",
    "ProNEParams",
    "prone_embedding",
    "NetMFParams",
    "netmf_embedding",
    "DeepWalkSGDParams",
    "deepwalk_sgd_embedding",
    "PBGParams",
    "pbg_embedding",
    "NRPParams",
    "nrp_embedding",
    # method registry
    "MethodSpec",
    "get_method",
    "list_methods",
    "make_params",
    "method_names",
    "run_method",
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
