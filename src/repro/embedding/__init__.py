"""Embedding algorithms: LightNE (with NetSMF and SketchNE as presets of its
pipeline), ProNE, the exact NetMF reference, and the other systems the paper
measures against — DeepWalk-by-SGD (the GraphVite stand-in), PBG and NRP.
Every builder has the one signature ``builder(graph, params, seed=None)``.

All methods run on the shared pipeline skeleton in
:mod:`repro.embedding.base` and are dispatched by name through the
declarative registry in :mod:`repro.embedding.registry`."""

from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.embedding.netmf import NetMFParams, netmf_embedding, netmf_matrix_dense
from repro.embedding.prone import ProNEParams, prone_embedding
from repro.embedding.lightne import (
    LightNEParams,
    lightne_embedding,
    netsmf_embedding,
    sketchne_embedding,
)
from repro.embedding.deepwalk import DeepWalkSGDParams, deepwalk_sgd_embedding
from repro.embedding.pbg import PBGParams, pbg_embedding
from repro.embedding.nrp import NRPParams, nrp_embedding
from repro.embedding.registry import (
    MethodSpec,
    canonical_name,
    get_method,
    list_methods,
    make_params,
    method_names,
    register,
    run_method,
)

__all__ = [
    "EmbeddingResult",
    "PipelineContext",
    "PipelineSpec",
    "run_pipeline",
    "NetMFParams",
    "netmf_embedding",
    "netmf_matrix_dense",
    "netsmf_embedding",
    "ProNEParams",
    "prone_embedding",
    "LightNEParams",
    "lightne_embedding",
    "sketchne_embedding",
    "DeepWalkSGDParams",
    "deepwalk_sgd_embedding",
    "PBGParams",
    "pbg_embedding",
    "NRPParams",
    "nrp_embedding",
    "MethodSpec",
    "canonical_name",
    "get_method",
    "list_methods",
    "make_params",
    "method_names",
    "register",
    "run_method",
]
