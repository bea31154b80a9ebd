"""HOPE [20] — Katz-proximity embedding via an implicit operator.

Cited by the paper (§2) in the SVD category.  HOPE factorizes the Katz
proximity ``S = Σ_{r≥1} β^r A^r = (I - βA)^{-1} βA`` with a generalized SVD.
Like the NRP baseline, ``S`` never needs materializing: we wrap the
truncated Katz series as a :class:`LinearOperator` (Horner SPMVs) and run
the shared randomized SVD — another demonstration of the "no entry-wise log
→ implicit factorization" shortcut the paper contrasts against.

For an undirected graph HOPE's source/target embeddings coincide up to the
SVD signs; we return ``U Σ^{1/2}`` as elsewhere.
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
from repro.graph import GraphLike
from repro.linalg.operators import polynomial_operator
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class HOPEParams:
    """HOPE hyper-parameters.

    ``beta`` must stay below ``1/λ_max(A)`` for the Katz series to converge;
    ``beta=None`` auto-selects ``0.5 / λ_max`` (the common heuristic).
    ``order`` truncates the series (the error decays geometrically).
    """

    dimension: int = 128
    beta: Optional[float] = None
    order: int = 10


def katz_decay_rate(graph: GraphLike) -> float:
    """Largest adjacency eigenvalue ``λ_max`` (power iteration)."""
    graph = graph.flat()
    adjacency = graph.adjacency()
    n = graph.num_vertices
    if n == 0 or adjacency.nnz == 0:
        return 0.0
    rng = np.random.default_rng(0)
    vector = rng.random(n)
    vector /= np.linalg.norm(vector)
    value = 0.0
    for _ in range(100):
        nxt = adjacency @ vector
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0
        nxt /= norm
        if abs(norm - value) < 1e-9 * max(1.0, norm):
            return float(norm)
        value, vector = norm, nxt
    return float(value)


def _hope_body(ctx: PipelineContext):
    graph, params = ctx.graph, ctx.params
    n = graph.num_vertices
    if params.order < 1:
        raise FactorizationError(f"order must be >= 1, got {params.order}")

    with telemetry.stage("svd"):
        lam = katz_decay_rate(graph)
        if params.beta is None:
            beta = 0.5 / lam if lam > 0 else 0.5
        else:
            beta = params.beta
            if lam > 0 and beta * lam >= 1.0:
                raise FactorizationError(
                    f"beta={beta} does not converge: needs beta < 1/λ_max "
                    f"= {1.0 / lam:.4g}"
                )
        adjacency = graph.adjacency().tocsr()
        # S ≈ Σ_{r=1..order} (βA)^r  =  (Σ_{r=0..order-1} β^r A^r) · βA.
        coefficients = [beta**r for r in range(params.order)]
        series = polynomial_operator(adjacency, coefficients)
        katz = _compose(series, adjacency, beta, n)
        u, sigma, _ = randomized_svd(katz, params.dimension, seed=ctx.rng)
        vectors = embedding_from_svd(u, sigma)
    ctx.info.update({"beta": beta, "order": params.order, "lambda_max": lam})
    return vectors


HOPE_PIPELINE = PipelineSpec(name="hope", body=_hope_body)


def hope_embedding(
    graph: GraphLike,
    params: HOPEParams = HOPEParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """HOPE embedding from the implicit truncated Katz operator."""
    return run_pipeline(graph, HOPE_PIPELINE, params, seed)


def _compose(series, adjacency: sp.csr_matrix, beta: float, n: int):
    """LinearOperator for ``series @ (β A)`` (and its adjoint)."""
    import scipy.sparse.linalg as spla

    def matvec(x):
        return series @ (beta * (adjacency @ np.asarray(x)))

    def rmatvec(x):
        x = np.asarray(x)
        seeded = series.rmatmat(x) if x.ndim == 2 else series.rmatvec(x)
        return beta * (adjacency.T @ seeded)

    return spla.LinearOperator(
        shape=(n, n),
        matvec=matvec,
        rmatvec=rmatvec,
        matmat=matvec,
        rmatmat=rmatvec,
        dtype=np.float64,
    )
