r"""ProNE / ProNE+ [40] — modulated-Laplacian factorization + propagation.

Step 1 factorizes a *sparse* matrix with one entry per edge (paper §3.1):

    M_uv = log( (A_uv / D_u) · Σ_j λ_j^α / (b · λ_v^α) ),   λ_v = Σ_i A_iv / D_i

— a normalized adjacency modulated by an α-smoothed negative-sampling term
(α = 0.75, b = 1 by default, the word2vec unigram smoothing).  Step 2 is the
Chebyshev spectral propagation shared with LightNE
(:mod:`repro.linalg.spectral`).

"ProNE+" in the paper is exactly this algorithm re-implemented on the
optimized substrate (GBBS + MKL); here both run through the same numpy code,
so the class doubles as ProNE+ with stage timing for Table 5.
"""

from __future__ import annotations

import tempfile
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
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.linalg.spectral import spectral_propagation
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class ProNEParams:
    """ProNE hyper-parameters (defaults follow the original release).

    ``propagate=False`` stops after the step-1 factorization (the ablation
    separating the two steps).  ``workers`` threads the dense-stage SPMMs
    (bit-identical at every width) and ``precision`` selects the
    ``"double"``/``"single"`` dtype policy of
    :mod:`repro.linalg.kernels` for factorization and propagation.
    ``backend="process"`` puts the propagation buffers in temp-file
    memmaps (bit-identical output).
    """

    dimension: int = 128
    alpha: float = 0.75
    negative_samples: float = 1.0
    propagate: bool = True
    propagation_order: int = 10
    mu: float = 0.2
    theta: float = 0.5
    workers: Optional[int] = None
    backend: str = "thread"
    precision: str = "double"


def prone_factorization_matrix(
    graph: CSRGraph, *, alpha: float = 0.75, negative_samples: float = 1.0
) -> sp.csr_matrix:
    """The sparse modulated matrix ProNE factorizes (``m`` non-zeros).

    Entries are truncated at zero (``max(0, log ·)``) like Eq. (1) — negative
    log-values carry no co-occurrence signal.
    """
    if not 0.0 < alpha <= 1.0:
        raise FactorizationError(f"alpha must be in (0, 1], got {alpha}")
    if negative_samples <= 0:
        raise FactorizationError(
            f"negative_samples must be > 0, got {negative_samples}"
        )
    adjacency = graph.adjacency()
    degrees = graph.weighted_degrees()
    safe = np.where(degrees > 0, degrees, 1.0)
    row_norm = sp.diags(1.0 / safe) @ adjacency  # A_uv / D_u
    # λ_v = Σ_i A_iv / D_i  — column sums of the row-normalized adjacency.
    lam = np.asarray(row_norm.sum(axis=0)).ravel()
    lam = np.where(lam > 0, lam, 1.0)
    smoothing = lam**alpha
    total = smoothing.sum()
    result = row_norm.tocsr(copy=True)
    cols = result.indices
    with np.errstate(divide="ignore"):
        logged = np.log(result.data) + np.log(total) - np.log(
            negative_samples * smoothing[cols]
        )
    result.data = np.maximum(0.0, logged)
    result.eliminate_zeros()
    return result


def _prone_body(ctx: PipelineContext):
    params = ctx.params
    with telemetry.stage("svd"):
        matrix = prone_factorization_matrix(
            ctx.graph, alpha=params.alpha, negative_samples=params.negative_samples
        )
        u, sigma, _ = randomized_svd(
            matrix, params.dimension, seed=ctx.rng,
            precision=params.precision, workers=params.workers,
        )
        vectors = embedding_from_svd(u, sigma)
    if params.propagate:
        with telemetry.stage("propagation"):
            vectors = spectral_propagation(
                ctx.graph,
                vectors,
                order=params.propagation_order,
                mu=params.mu,
                theta=params.theta,
                precision=params.precision,
                workers=params.workers,
                offload_dir=(
                    tempfile.gettempdir()
                    if params.backend == "process"
                    else None
                ),
            )
    return vectors


PRONE_PIPELINE = PipelineSpec(name="prone", body=_prone_body)


def prone_embedding(
    graph: CSRGraph,
    params: ProNEParams = ProNEParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """ProNE(+) embedding: sparse factorization, then spectral propagation.

    Result method name is the canonical ``"prone"``; ``"prone+"`` remains a
    registered alias.
    """
    return run_pipeline(graph, PRONE_PIPELINE, params, seed)
