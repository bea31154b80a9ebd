"""NetSMF [22] — sparse matrix factorization via PathSampling (paper §3.1).

This is the *plain* NetSMF baseline: Algorithm 2's per-edge sampling but with
the downsampling coin disabled (every draw is kept), the sort-based
aggregator by default (standing in for NetSMF's per-thread sparsifiers merged
at the end), followed by randomized SVD.  LightNE differs by (a) enabling
downsampling and (b) adding spectral propagation (the paper's third
difference, the shared hash table, is ``aggregator="hash"`` on either).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.graph.compression import CompressedGraph
from repro.graph.csr import CSRGraph
from repro.linalg.randomized_svd import embedding_from_svd
from repro.linalg.single_pass import factorize
from repro.sparsifier.backends import build_sparsifier
from repro.sparsifier.builder import sparsifier_to_netmf_matrix
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.telemetry import health
from repro.utils.rng import SeedLike

GraphLike = Union[CSRGraph, CompressedGraph]


@dataclass(frozen=True)
class NetSMFParams:
    """NetSMF hyper-parameters.

    Attributes
    ----------
    dimension:
        Embedding dimension ``d``.
    window:
        Context window ``T`` (paper default 10).
    sample_multiplier:
        ``M = multiplier · T · m`` (the paper sweeps 1–8 for NetSMF).
    negative_samples:
        The ``b`` of Eq. (1).
    aggregator:
        ``"sort"`` mimics NetSMF's merge-at-end; ``"hash"`` /
        ``"hash-sharded"`` available too.
    sparsifier:
        Sparsifier backend: ``"path"`` (default, the Monte-Carlo
        PathSampling pipeline) or ``"ppr"`` (push-based PPR proximity);
        see :mod:`repro.sparsifier.backends`.
    workers:
        Thread-pool width for sampling and the SVD's SPMMs
        (``None`` = ``default_workers()``); bit-identical at every width.
    backend:
        ``"thread"`` (default) or ``"process"`` (out-of-core sampling /
        aggregation substrate — see
        :func:`repro.sparsifier.builder.build_netmf_sparsifier`);
        bit-identical either way.
    precision:
        Dense-kernel dtype policy (``"double"``/``"single"``); see
        :mod:`repro.linalg.kernels`.
    factorizer:
        ``"rsvd"`` (default, bit-identical to the pre-knob pipeline) or
        ``"single_pass"`` (SketchNE-style sketched factorization); see
        :mod:`repro.linalg.single_pass`.
    """

    dimension: int = 128
    window: int = 10
    sample_multiplier: float = 1.0
    negative_samples: float = 1.0
    aggregator: str = "sort"
    sparsifier: str = "path"
    workers: Optional[int] = None
    backend: str = "thread"
    precision: str = "double"
    factorizer: str = "rsvd"


def _netsmf_body(ctx: PipelineContext):
    graph, params = ctx.graph, ctx.params
    config = PathSamplingConfig(
        window=params.window,
        num_samples=PathSamplingConfig.samples_for_multiplier(
            graph, params.window, params.sample_multiplier
        ),
        downsample=False,
    )
    result = build_sparsifier(
        graph, config, ctx.rng, sparsifier=params.sparsifier,
        aggregator=params.aggregator, timer=ctx.timer,
        workers=params.workers, backend=params.backend,
    )
    with ctx.timer.stage("svd"):
        matrix = sparsifier_to_netmf_matrix(
            graph, result, negative_samples=params.negative_samples
        )
        health.checkpoint("svd.netmf_matrix", matrix)
        u, sigma, _ = factorize(
            matrix, params.dimension, factorizer=params.factorizer,
            seed=ctx.rng, precision=params.precision,
            workers=params.workers, symmetric=True,
        )
        vectors = embedding_from_svd(u, sigma)
        health.checkpoint("svd", vectors)
    ctx.info.update(
        {
            "window": params.window,
            "num_draws": result.num_draws,
            "sparsifier": params.sparsifier,
            "sparsifier_nnz": result.nnz,
            "sample_multiplier": params.sample_multiplier,
            "factorizer": params.factorizer,
        }
    )
    return vectors


NETSMF_PIPELINE = PipelineSpec(name="netsmf", body=_netsmf_body)


def netsmf_embedding(
    graph: GraphLike,
    params: NetSMFParams = NetSMFParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Compute a NetSMF embedding (no downsampling, no propagation)."""
    return run_pipeline(graph, NETSMF_PIPELINE, params, seed)
