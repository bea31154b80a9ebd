"""SketchNE / NetMF+ — the single-pass sketched pipeline, end to end.

SketchNE (arXiv 2110.12782; PAPERS.md) and LIGHTNE 2.0 (arXiv 2302.07084)
replace the factorization heart of the LightNE pipeline: instead of the
two-sided Gaussian randomized SVD (Algorithm 3, ``2 + 2q`` passes over the
NetMF matrix, several dense ``n × (d+p)`` workspaces), they draw sparse-sign
sketches and recover the spectrum from **one** streamed pass and a small
eigendecomposition (:mod:`repro.linalg.single_pass`).  Everything around the
factorization is shared with LightNE: the downsampled PathSampling
sparsifier (Algorithm 2), the trunc-log NetMF matrix estimator, ProNE's
spectral propagation, both execution substrates, and the
``precision="single"`` dtype policy.

The method is registered as ``sketchne`` (aliases ``netmf+`` /
``netmfplus``) with stages ``sparsifier`` / ``svd`` / ``propagation`` so
ledger rows compare directly against ``lightne``.  Determinism matches the
rest of the library: embeddings are bit-identical for a fixed seed at every
worker count and on both thread/process substrates.
"""

from __future__ import annotations

import tempfile
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
from repro.linalg.sketch import SKETCH_NNZ_PER_ROW
from repro.linalg.spectral import spectral_propagation
from repro.sparsifier.backends import build_sparsifier
from repro.sparsifier.builder import sparsifier_to_netmf_matrix
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.telemetry import health
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike

GraphLike = Union[CSRGraph, CompressedGraph]

logger = get_logger(__name__)


@dataclass(frozen=True)
class SketchNEParams:
    """SketchNE hyper-parameters.

    The sparsifier-side knobs (``window`` / ``sample_multiplier`` /
    ``downsample`` / ``aggregator`` / ``sparsifier`` / ``batch_size``) and
    the propagation knobs (``propagate`` / ``propagation_order`` / ``mu`` /
    ``theta``) mean exactly what they mean on
    :class:`~repro.embedding.lightne.LightNEParams` (``aggregator`` defaults
    to ``"sort"`` there and here).  New here:

    nnz_per_row:
        Sparse-sign sketch density ζ (expected nonzeros per sketch row;
        see :mod:`repro.linalg.sketch`).
    oversampling:
        Extra range-sketch columns ``p`` beyond the embedding dimension;
        the co-range sketch is ``2(d+p)+1`` wide (Tropp et al.'s rule).
        ``None`` (default) resolves ``p = max(10, 3d)`` — the
        flat-spectrum-safe ``w = 4d`` width from the E18 ablation (one
        pass cannot power-iterate, so width is the quality knob).
    factorizer:
        ``"single_pass"`` (default — the method's raison d'être) or
        ``"rsvd"`` for an in-place ablation against Algorithm 3 with every
        other stage held fixed.
    """

    dimension: int = 128
    window: int = 10
    sample_multiplier: float = 1.0
    negative_samples: float = 1.0
    downsample: bool = True
    downsample_constant: Optional[float] = None
    nnz_per_row: int = SKETCH_NNZ_PER_ROW
    oversampling: Optional[int] = None
    propagate: bool = True
    propagation_order: int = 10
    mu: float = 0.2
    theta: float = 0.5
    aggregator: str = "sort"
    sparsifier: str = "path"
    workers: Optional[int] = None
    backend: str = "thread"
    precision: str = "double"
    factorizer: str = "single_pass"
    batch_size: int = 2_000_000


def _sketchne_body(ctx: PipelineContext):
    graph, params = ctx.graph, ctx.params
    config = PathSamplingConfig(
        window=params.window,
        num_samples=PathSamplingConfig.samples_for_multiplier(
            graph, params.window, params.sample_multiplier
        ),
        downsample=params.downsample,
        downsample_constant=params.downsample_constant,
    )
    logger.debug(
        "sketchne: n=%d m=%d T=%d M=%d factorizer=%s",
        graph.num_vertices, graph.num_edges, config.window,
        config.num_samples, params.factorizer,
    )
    ctx.span.set_attribute("window", params.window)
    ctx.span.set_attribute("factorizer", params.factorizer)
    ctx.span.set_attribute("nnz_per_row", params.nnz_per_row)
    sparsifier = build_sparsifier(
        graph, config, ctx.rng, sparsifier=params.sparsifier,
        aggregator=params.aggregator, timer=ctx.timer,
        workers=params.workers, backend=params.backend,
        batch_size=params.batch_size,
    )
    with ctx.timer.stage("svd", rank=params.dimension):
        matrix = sparsifier_to_netmf_matrix(
            graph, sparsifier, negative_samples=params.negative_samples
        )
        health.checkpoint("svd.netmf_matrix", matrix)
        u, sigma, _ = factorize(
            matrix, params.dimension, factorizer=params.factorizer,
            oversampling=params.oversampling,
            nnz_per_row=params.nnz_per_row, seed=ctx.rng,
            precision=params.precision, workers=params.workers,
            symmetric=True,
        )
        vectors = embedding_from_svd(u, sigma)
        health.checkpoint("svd", vectors)
    if params.propagate:
        with ctx.timer.stage("propagation", order=params.propagation_order):
            offload_dir = (
                tempfile.gettempdir() if params.backend == "process" else None
            )
            vectors = spectral_propagation(
                graph,
                vectors,
                order=params.propagation_order,
                mu=params.mu,
                theta=params.theta,
                precision=params.precision,
                workers=params.workers,
                offload_dir=offload_dir,
            )
        health.checkpoint("propagation", vectors)
    ctx.span.set_attribute("sparsifier_nnz", sparsifier.nnz)
    ctx.info.update(
        {
            "window": params.window,
            "sample_multiplier": params.sample_multiplier,
            "num_draws": sparsifier.num_draws,
            "sparsifier": params.sparsifier,
            "sparsifier_nnz": sparsifier.nnz,
            "downsample": params.downsample,
            "propagated": params.propagate,
            "precision": params.precision,
            "backend": params.backend,
            "factorizer": params.factorizer,
            "nnz_per_row": params.nnz_per_row,
        }
    )
    return vectors


SKETCHNE_PIPELINE = PipelineSpec(name="sketchne", body=_sketchne_body)


def sketchne_embedding(
    graph: GraphLike,
    params: SketchNEParams = SketchNEParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Run the SketchNE (NetMF+) pipeline on ``graph``.

    Identical stage structure to :func:`~repro.embedding.lightne.
    lightne_embedding` — sparsifier, factorization, optional spectral
    propagation — with the factorization done by the single-pass sketched
    backend.  When telemetry is enabled, the ``sketch.*`` spans/counters
    (operator passes, flops, bytes, sketch width/density) appear under the
    ``svd`` stage.
    """
    return run_pipeline(graph, SKETCHNE_PIPELINE, params, seed)
