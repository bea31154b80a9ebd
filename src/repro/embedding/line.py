"""LINE [32] — first-order proximity embedding.

The paper (Section 3.1) observes LINE approximately factorizes the NetMF
matrix with ``T = 1``; we implement it exactly that way.  For graphs past the
dense limit the ``T = 1`` matrix is sparse (only edge entries), so we build
it sparsely and reuse the randomized SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from repro.graph import CSRGraph
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.sparsifier.builder import trunc_log
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class LINEParams:
    """LINE hyper-parameters (the ``T = 1`` NetMF factorization)."""

    dimension: int = 128
    negative_samples: float = 1.0


def line_matrix(graph: CSRGraph, negative_samples: float = 1.0) -> sp.csr_matrix:
    """``trunc_log( vol(G)/b · D⁻¹ A D⁻¹ )`` — Eq. (1) at ``T = 1``, sparse."""
    degrees = graph.weighted_degrees()
    safe = np.where(degrees > 0, degrees, 1.0)
    inv_d = sp.diags(1.0 / safe)
    matrix = (graph.volume / negative_samples) * (inv_d @ graph.adjacency() @ inv_d)
    return trunc_log(matrix.tocsr())


def _line_body(ctx: PipelineContext):
    params = ctx.params
    with telemetry.stage("matrix"):
        matrix = line_matrix(ctx.graph, params.negative_samples)
    with telemetry.stage("svd"):
        u, sigma, _ = randomized_svd(matrix, params.dimension, seed=ctx.rng)
        vectors = embedding_from_svd(u, sigma)
    ctx.info["window"] = 1
    return vectors


LINE_PIPELINE = PipelineSpec(name="line", body=_line_body)


def line_embedding(
    graph: CSRGraph,
    params: Optional[Union[LINEParams, int]] = None,
    seed: SeedLike = None,
    *,
    negative_samples: Optional[float] = None,
) -> EmbeddingResult:
    """LINE embedding via the T=1 matrix factorization.

    ``params`` is a :class:`LINEParams`, or (legacy form) a bare dimension
    int combined with the ``negative_samples`` keyword.
    """
    if params is None:
        params = LINEParams()
    elif not isinstance(params, LINEParams):
        params = LINEParams(dimension=int(params))
    if negative_samples is not None:
        params = replace(params, negative_samples=negative_samples)
    return run_pipeline(graph, LINE_PIPELINE, params, seed)
