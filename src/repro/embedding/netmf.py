r"""Exact (dense) NetMF — the reference the sparsified pipeline approximates.

NetMF [23] factorizes (paper Eq. 1)

    M = trunc_log( vol(G)/(bT) · Σ_{r=1}^{T} (D⁻¹A)^r D⁻¹ )

and embeds with the top-``d`` SVD, ``X = U_d Σ_d^{1/2}``.  Constructing ``M``
densifies at ``O(n²)`` memory, which is exactly the bottleneck motivating
NetSMF/LightNE — so this implementation is for small graphs and as a test
oracle for the sparsifier's estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from repro.graph import GraphLike
from repro.linalg.randomized_svd import embedding_from_svd
from repro.linalg.single_pass import factorize
from repro.utils.rng import SeedLike

DENSE_LIMIT = 20_000


@dataclass(frozen=True)
class NetMFParams:
    """NetMF hyper-parameters.

    ``strategy="exact"`` materializes Eq. (1) exactly (NetMF-small);
    ``strategy="eigen"`` uses the truncated-eigenpair approximation
    (NetMF-large) with ``eigen_rank`` pairs.  The registry exposes both as
    separate methods (``netmf`` / ``netmf-eigen``) differing only in the
    ``strategy`` default.  ``workers`` / ``precision`` control the SVD's
    kernel layer (:mod:`repro.linalg.kernels`); ``precision="single"``
    halves the dense matrix's footprint during factorization.
    ``factorizer`` picks the factorization backend (``"rsvd"`` default /
    ``"single_pass"``; see :mod:`repro.linalg.single_pass`).
    """

    dimension: int = 128
    window: int = 10
    negative_samples: float = 1.0
    strategy: str = "exact"
    eigen_rank: int = 256
    workers: Optional[int] = None
    precision: str = "double"
    factorizer: str = "rsvd"


def netmf_matrix_dense(
    graph: GraphLike, window: int = 10, negative_samples: float = 1.0
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
    graph = graph.flat()
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


def netmf_matrix_eigen(
    graph: GraphLike,
    window: int = 10,
    negative_samples: float = 1.0,
    *,
    rank: int = 256,
) -> np.ndarray:
    """NetMF-large's approximation of Eq. (1) via truncated eigenpairs.

    Uses the identity ``(D⁻¹A)^r D⁻¹ = D^{-1/2} Â^r D^{-1/2}`` with
    ``Â = D^{-1/2} A D^{-1/2}``: take the top-``rank`` eigenpairs of ``Â``,
    filter the eigenvalues through the window polynomial
    ``f(λ) = (1/T) Σ_{r=1..T} λ^r`` (clipped at 0, as NetMF does), and
    reassemble before the entry-wise trunc-log.  Time drops from
    ``O(T·n³)`` to ``O(n²·rank)``; memory is still ``O(n²)`` because the
    log requires the dense entries — exactly the wall NetSMF removes.
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
            f"NetMF-large still materializes n x n; limited to {DENSE_LIMIT}"
        )
    graph = graph.flat()
    rank = min(rank, n - 1)
    if rank < 1:
        raise FactorizationError("graph too small for eigen approximation")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    adjacency = graph.adjacency()
    degrees = graph.weighted_degrees()
    safe = np.where(degrees > 0, degrees, 1.0)
    inv_sqrt = sp.diags(safe**-0.5)
    a_hat = (inv_sqrt @ adjacency @ inv_sqrt).tocsr()
    vals, vecs = spla.eigsh(a_hat, k=rank, which="LA")
    # Window filter with NetMF's non-negativity clip on the filtered values.
    powers = np.zeros_like(vals)
    term = np.ones_like(vals)
    for _ in range(window):
        term = term * vals
        powers += term
    filtered = np.maximum(powers / window, 0.0)
    half = (inv_sqrt @ vecs) * np.sqrt(filtered)[None, :]
    matrix = (graph.volume / negative_samples) * (half @ half.T)
    return np.maximum(0.0, np.log(np.maximum(matrix, 1e-300)))


def _netmf_body(ctx: PipelineContext):
    params = ctx.params
    with telemetry.stage("matrix"):
        if params.strategy == "exact":
            matrix = netmf_matrix_dense(
                ctx.graph, params.window, params.negative_samples
            )
        else:
            matrix = netmf_matrix_eigen(
                ctx.graph,
                params.window,
                params.negative_samples,
                rank=params.eigen_rank,
            )
    with telemetry.stage("svd"):
        # Eq. (1)'s trunc-log matrix is symmetric for both strategies.
        u, sigma, _ = factorize(
            matrix, params.dimension, factorizer=params.factorizer,
            seed=ctx.rng, precision=params.precision,
            workers=params.workers, symmetric=True,
        )
        vectors = embedding_from_svd(u, sigma)
    ctx.info.update(
        {
            "window": params.window,
            "negative_samples": params.negative_samples,
            "strategy": params.strategy,
            "factorizer": params.factorizer,
        }
    )
    return vectors


NETMF_PIPELINE = PipelineSpec(name="netmf", body=_netmf_body)
NETMF_EIGEN_PIPELINE = PipelineSpec(name="netmf-eigen", body=_netmf_body)


def netmf_embedding(
    graph: GraphLike,
    params: Optional[Union[NetMFParams, int]] = None,
    *,
    window: Optional[int] = None,
    negative_samples: Optional[float] = None,
    strategy: Optional[str] = None,
    eigen_rank: Optional[int] = None,
    seed: SeedLike = None,
) -> EmbeddingResult:
    """NetMF embedding.

    ``params`` is a :class:`NetMFParams`, or (legacy form) a bare dimension
    int combined with the keyword overrides.  The result's method name
    follows the resolved strategy: ``"netmf"`` or ``"netmf-eigen"``.
    """
    if params is None:
        params = NetMFParams()
    elif not isinstance(params, NetMFParams):
        params = NetMFParams(dimension=int(params))
    overrides = {
        name: value
        for name, value in (
            ("window", window),
            ("negative_samples", negative_samples),
            ("strategy", strategy),
            ("eigen_rank", eigen_rank),
        )
        if value is not None
    }
    if overrides:
        params = replace(params, **overrides)
    if params.strategy not in ("exact", "eigen"):
        raise FactorizationError(
            f"strategy must be 'exact' or 'eigen', got {params.strategy!r}"
        )
    spec = NETMF_PIPELINE if params.strategy == "exact" else NETMF_EIGEN_PIPELINE
    return run_pipeline(graph, spec, params, seed)
