r"""NRP/NPR [38] stand-in — PPR-polynomial factorization *without* the log.

Section 2 of the paper singles out NPR: it factorizes the pairwise
personalized-PageRank matrix but "omits a step of taking the entry-wise
logarithm … Due to that omission, NPR is able to operate on the original
graph efficiently while the others must construct the random walk matrix
exactly or approximately."

We reproduce that shortcut faithfully: the PPR polynomial

    Π = Σ_{r=0}^{k} α (1-α)^r (D⁻¹A)^r

is never materialized — it is wrapped as a LinearOperator (Horner SPMVs) and
fed straight into the same randomized SVD every other method uses.  This is
both the baseline for Figure 4 and the library's live demonstration of *why*
the truncated log forces NetSMF-style sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.errors import FactorizationError
from repro.graph import CSRGraph
from repro.linalg.kernels import resolve_precision
from repro.linalg.operators import polynomial_operator
from repro.linalg.randomized_svd import embedding_from_svd, factorize
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class NRPParams:
    """NRP hyper-parameters: PPR teleport ``alpha`` and truncation order.

    ``workers`` / ``precision`` thread the Horner SPMVs and the SVD through
    :mod:`repro.linalg.kernels` (``"single"`` keeps the implicit operator's
    walk matrix and work buffers in float32).
    """

    dimension: int = 128
    alpha: float = 0.15
    order: int = 10
    workers: Optional[int] = None
    precision: str = "double"


def _nrp_body(ctx: PipelineContext):
    graph, params = ctx.graph, ctx.params
    if not 0.0 < params.alpha < 1.0:
        raise FactorizationError(f"alpha must be in (0, 1), got {params.alpha}")
    if params.order < 1:
        raise FactorizationError(f"order must be >= 1, got {params.order}")

    with telemetry.stage("svd"):
        degrees = graph.weighted_degrees()
        safe = np.where(degrees > 0, degrees, 1.0)
        walk = (sp.diags(1.0 / safe) @ graph.adjacency()).tocsr()
        coefficients = [
            params.alpha * (1.0 - params.alpha) ** r for r in range(params.order + 1)
        ]
        operator = polynomial_operator(
            walk,
            coefficients,
            workers=params.workers,
            dtype=resolve_precision(params.precision),
        )
        u, sigma, _ = factorize(
            operator, params.dimension, seed=ctx.rng,
            precision=params.precision, workers=params.workers,
            symmetric=False,
        )
        vectors = embedding_from_svd(u, sigma)
    return vectors


NRP_PIPELINE = PipelineSpec(name="nrp", body=_nrp_body)


def nrp_embedding(
    graph: CSRGraph,
    params: NRPParams = NRPParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Factorize the implicit truncated-PPR operator (no log, no sampling)."""
    return run_pipeline(graph, NRP_PIPELINE, params, seed)
