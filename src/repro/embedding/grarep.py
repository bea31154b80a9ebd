"""GraRep [2] — per-step transition-matrix factorization, concatenated.

Cited by the paper (§2) as an SVD-category ancestor of NetMF.  GraRep
factorizes, for each step ``k = 1..K``, the positive log co-occurrence
matrix of the ``k``-step transition matrix ``P^k`` and concatenates the
per-step embeddings.  It materializes each ``P^k`` densely — the exact
scalability wall NetSMF/LightNE exist to remove — so, like exact NetMF, it
is limited to small graphs and doubles as a family baseline for Figure 4
style comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro import telemetry
from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.embedding.netmf import DENSE_LIMIT
from repro.errors import FactorizationError
from repro.graph import GraphLike
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class GraRepParams:
    """GraRep hyper-parameters.

    ``dimension`` is the total output width; each of the ``steps`` blocks
    contributes ``dimension // steps`` columns (the original paper's
    per-step ``d``).
    """

    dimension: int = 128
    steps: int = 4
    negative_samples: float = 1.0


def _grarep_body(ctx: PipelineContext):
    graph, params, rng = ctx.graph, ctx.params, ctx.rng
    n = graph.num_vertices
    if params.steps < 1:
        raise FactorizationError(f"steps must be >= 1, got {params.steps}")
    if params.dimension < params.steps:
        raise FactorizationError(
            f"dimension {params.dimension} < steps {params.steps}"
        )
    if n > DENSE_LIMIT:
        raise FactorizationError(
            f"GraRep materializes dense P^k; limited to {DENSE_LIMIT} vertices"
        )

    per_step = params.dimension // params.steps
    remainder = params.dimension - per_step * params.steps
    adjacency = graph.adjacency().toarray()
    degrees = graph.weighted_degrees()
    safe = np.where(degrees > 0, degrees, 1.0)
    transition = adjacency / safe[:, None]

    blocks = []
    with telemetry.stage("matrix+svd"):
        power = np.eye(n)
        for k in range(params.steps):
            power = power @ transition
            # Positive log shifted by the column marginals (GraRep's
            # log(P_ij / sum_i P_ij) - log(beta), beta = 1/n by convention).
            column_mass = power.sum(axis=0)
            column_mass[column_mass <= 0] = 1.0
            with np.errstate(divide="ignore"):
                logged = np.log(np.maximum(power / column_mass[None, :], 1e-300))
            matrix = np.maximum(
                0.0, logged - np.log(params.negative_samples / n)
            )
            width = per_step + (remainder if k == params.steps - 1 else 0)
            width = min(width, n)
            u, sigma, _ = randomized_svd(matrix, width, seed=rng)
            blocks.append(embedding_from_svd(u, sigma))
    ctx.info.update({"steps": params.steps, "per_step_dim": per_step})
    return np.hstack(blocks)


GRAREP_PIPELINE = PipelineSpec(name="grarep", body=_grarep_body)


def grarep_embedding(
    graph: GraphLike,
    params: GraRepParams = GraRepParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Compute GraRep: concatenated per-step log-transition factorizations."""
    return run_pipeline(graph, GRAREP_PIPELINE, params, seed)
