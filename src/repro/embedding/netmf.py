r"""Exact (dense) NetMF — the reference the sparsified pipeline approximates.

NetMF [23] factorizes (paper Eq. 1)

    M = trunc_log( vol(G)/(bT) · Σ_{r=1}^{T} (D⁻¹A)^r D⁻¹ )

and embeds with the top-``d`` SVD, ``X = U_d Σ_d^{1/2}``.  Constructing ``M``
densifies at ``O(n²)`` memory, which is exactly the bottleneck motivating
NetSMF/LightNE — so this implementation is for small graphs and as a test
oracle for the sparsifier's estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.errors import FactorizationError
from repro.graph import CSRGraph
from repro.linalg.randomized_svd import embedding_from_svd, factorize
from repro.utils.rng import SeedLike

DENSE_LIMIT = 20_000


@dataclass(frozen=True)
class NetMFParams:
    """NetMF hyper-parameters.

    Eq. (1) is materialized exactly (NetMF-small).  ``workers`` /
    ``precision`` control the SVD's kernel layer
    (:mod:`repro.linalg.kernels`); ``precision="single"`` halves the dense
    matrix's footprint during factorization.
    """

    dimension: int = 128
    window: int = 10
    negative_samples: float = 1.0
    workers: Optional[int] = None
    precision: str = "double"


def netmf_matrix_dense(
    graph: CSRGraph, window: int = 10, negative_samples: float = 1.0
) -> np.ndarray:
    """Materialize Eq. (1) densely (small graphs only).

    Raises
    ------
    FactorizationError
        When the graph exceeds ``DENSE_LIMIT`` vertices (the memory wall the
        paper describes) or parameters are invalid.
    """
    if window < 1:
        raise FactorizationError(f"window T must be >= 1, got {window}")
    if negative_samples <= 0:
        raise FactorizationError(
            f"negative_samples must be > 0, got {negative_samples}"
        )
    n = graph.num_vertices
    if n > DENSE_LIMIT:
        raise FactorizationError(
            f"dense NetMF limited to {DENSE_LIMIT} vertices; use NetSMF/LightNE"
        )
    adjacency = graph.adjacency().toarray()
    degrees = graph.weighted_degrees()
    safe = np.where(degrees > 0, degrees, 1.0)
    walk = adjacency / safe[:, None]  # D⁻¹A
    power = np.eye(n)
    accum = np.zeros((n, n))
    for _ in range(window):
        power = power @ walk
        accum += power
    matrix = (graph.volume / (negative_samples * window)) * (accum / safe[None, :])
    return np.maximum(0.0, np.log(np.maximum(matrix, 1e-300)))


def _netmf_body(ctx: PipelineContext):
    params = ctx.params
    with telemetry.stage("matrix"):
        matrix = netmf_matrix_dense(
            ctx.graph, params.window, params.negative_samples
        )
    with telemetry.stage("svd"):
        # Eq. (1)'s trunc-log matrix is symmetric.
        u, sigma, _ = factorize(
            matrix, params.dimension, seed=ctx.rng,
            precision=params.precision, workers=params.workers,
            symmetric=True,
        )
        vectors = embedding_from_svd(u, sigma)
    ctx.info.update(
        {
            "window": params.window,
            "negative_samples": params.negative_samples,
        }
    )
    return vectors


NETMF_PIPELINE = PipelineSpec(name="netmf", body=_netmf_body)


def netmf_embedding(
    graph: CSRGraph,
    params: NetMFParams = NetMFParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Exact NetMF: materialize Eq. (1) densely, then factorize it."""
    return run_pipeline(graph, NETMF_PIPELINE, params, seed)
