"""LightNE — the paper's system (Sections 3.2 and 4).

Pipeline (Figure 1):

1. **Parallel sparsifier construction** — downsampled per-edge PathSampling
   (Algorithm 2), each slab sort-reduced where it is sampled and the runs
   folded once into the count matrix;
2. **Parallel randomized SVD** (Algorithm 3) of the trunc-log NetMF matrix
   estimator, ``X = U Σ^{1/2}``;
3. **Spectral propagation** — ProNE's Chebyshev filter on ``X``.

Stage wall-clock is recorded under the Table-5 names
(``sparsifier`` / ``svd`` / ``propagation``).  The paper's named
configurations are exposed as constructors:
``LightNEParams.small(T)`` (M = 0.1·T·m) and ``LightNEParams.large(T)``
(M = 20·T·m).  For very large graphs the paper sets ``T=2, d=32`` and skips
propagation — pass ``propagate=False``.

The paper presents LightNE as NetSMF plus two switches, so NetSMF is a
*preset* of this one body rather than a module of its own:
:func:`netsmf_embedding` pins ``downsample`` and ``propagate`` off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.graph import CSRGraph
from repro.linalg.kernels import resolve_precision, tile_csr
from repro.linalg.randomized_svd import (
    OVERSAMPLING, check_factorizer, embedding_from_svd, factorize,
)
from repro.linalg.spectral import check_filter, spectral_propagation
from repro.sparsifier.builder import build_sparsifier, check_aggregator
from repro.sparsifier.builder import check_negative_samples, sparsifier_to_netmf_matrix
from repro.sparsifier.path_sampling import DEFAULT_BATCH_SIZE, PathSamplingConfig
from repro import telemetry
from repro.telemetry import health
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike

logger = get_logger(__name__)


@dataclass(frozen=True)
class LightNEParams:
    """LightNE hyper-parameters.

    Attributes
    ----------
    dimension:
        Embedding dimension ``d`` (paper: 128 for most graphs, 32 for the
        100-billion-edge ones).
    window:
        Context window ``T``; the paper cross-validates 1/5/10 by task.
    sample_multiplier:
        ``M = multiplier · T · m`` — 0.1 for LightNE-Small, 20 for
        LightNE-Large in the OAG study.
    negative_samples:
        The ``b`` of Eq. (1).
    downsample:
        The degree-based downsampling coin (the paper's new contribution;
        turn off only for ablations).
    downsample_constant:
        The ``C`` in ``p_e = min(1, C·A_uv(1/d_u + 1/d_v))``; ``None`` means
        ``log n``.
    propagate / propagation_order / mu / theta:
        Spectral-propagation controls (step 2).
    aggregator:
        ``"sort"`` (default), ``"hash"`` or ``"hash-sharded"``: validated
        and recorded on the spans and in the ledger, it selects no code —
        the sampler already folds each draw into its pair once.  Kept only
        because ``benchmarks/perf`` sets it; the §4.2 hash aggregators the
        names recall are the E12/E15 fixture ``benchmarks/hashing.py``.
    workers:
        Thread-pool width for sparsifier construction *and* the dense-stage
        SPMMs (randomized SVD, spectral propagation); ``None`` (default)
        resolves to :func:`repro.utils.parallel.default_workers`.  It is the
        dense stages' whole thread budget: numpy's BLAS runs their
        tall-skinny steps on one thread, so ``workers=1`` means one core
        there.  Both the sparsifier and the dense kernels are bit-identical
        for every worker count given the same ``seed`` and ``batch_size``.
    backend:
        ``"thread"`` (default) or ``"process"``: accepted, recorded,
        selects nothing; kept because ``benchmarks/perf`` sets it.  A name
        outside the two is a :class:`~repro.errors.BackendError`.
    precision:
        Dense-kernel dtype policy, ``"single"`` (default) or ``"double"``.
        ``"single"`` is the paper's: its numbers come from MKL's
        single-precision routines, and it keeps the whole factorize +
        propagate path in float32 (float64 accumulation only in the small
        reductions), so every SPMM moves half the bytes of ``"double"``.
        Both run the same kernels (Cholesky-QR orthonormalization, Gram
        rescale — :mod:`repro.linalg.kernels`); only the dtype differs, and
        the embedding comes back in that dtype.
    factorizer:
        The constant ``"rsvd"`` (the paper's Algorithm 3, the one
        factorizer).  It stays a field because the benchmark replay in
        ``benchmarks/perf`` reads it; any other value fails with
        :class:`~repro.errors.FactorizationError`.
    batch_size:
        PathSampling draws — counted *before* the downsampling coin — per
        sampling slab.  A slab is expanded, walked and sort-reduced on its
        own RNG stream, so the sparsifier stage holds about
        ``13·workers·batch_size·8 B`` of slab workspace plus ``~6·nnz·16 B``
        of reduced runs, whatever the draw budget ``M``
        (:func:`~repro.sparsifier.path_sampling.sample_sparsifier_edges`).
        It fixes the slab decomposition and with it every random stream:
        results are bit-identical across ``workers`` for a
        given ``(seed, batch_size)``, not across batch sizes.
    """

    dimension: int = 128
    window: int = 10
    sample_multiplier: float = 1.0
    negative_samples: float = 1.0
    downsample: bool = True
    downsample_constant: Optional[float] = None
    propagate: bool = True
    propagation_order: int = 10
    mu: float = 0.2
    theta: float = 0.5
    aggregator: str = "sort"
    workers: Optional[int] = None
    backend: str = "thread"
    precision: str = "single"
    factorizer: str = "rsvd"
    batch_size: int = DEFAULT_BATCH_SIZE

    @staticmethod
    def small(window: int = 10, dimension: int = 128) -> "LightNEParams":
        """LightNE-Small: fewest samples, ``M = 0.1·T·m`` (paper §5.2.3)."""
        return LightNEParams(
            dimension=dimension, window=window, sample_multiplier=0.1
        )

    @staticmethod
    def large(window: int = 10, dimension: int = 128) -> "LightNEParams":
        """LightNE-Large: most samples, ``M = 20·T·m`` (paper §5.2.3)."""
        return LightNEParams(
            dimension=dimension, window=window, sample_multiplier=20.0
        )

    @staticmethod
    def very_large(dimension: int = 32) -> "LightNEParams":
        """The very-large-graph setting: T=2, d=32, no propagation (§5.3)."""
        return LightNEParams(
            dimension=dimension, window=2, sample_multiplier=1.0, propagate=False
        )

    def with_multiplier(self, multiplier: float) -> "LightNEParams":
        """Copy with a different sample multiplier (Figure 2 sweeps)."""
        return replace(self, sample_multiplier=multiplier)


def _lightne_body(ctx: PipelineContext):
    graph, params = ctx.graph, ctx.params
    # Fail before sampling, with the error the stage reading a value raises.
    check_aggregator(params.aggregator)
    resolve_precision(params.precision)
    check_factorizer(params.factorizer)
    if params.propagate:
        check_filter(params.propagation_order, params.mu, params.theta)
    check_negative_samples(params.negative_samples)
    config = PathSamplingConfig(
        window=params.window,
        num_samples=PathSamplingConfig.samples_for_multiplier(
            graph, params.window, params.sample_multiplier
        ),
        downsample=params.downsample,
        downsample_constant=params.downsample_constant,
    )
    logger.debug(
        "lightne: n=%d m=%d T=%d M=%d downsample=%s",
        graph.num_vertices, graph.num_edges, config.window,
        config.num_samples, config.downsample,
    )
    ctx.span.set_attribute("window", params.window)
    ctx.span.set_attribute("sample_multiplier", params.sample_multiplier)
    ctx.span.set_attribute("aggregator", params.aggregator)
    sparsifier = build_sparsifier(
        graph, config, ctx.rng, aggregator=params.aggregator,
        workers=params.workers, backend=params.backend,
        batch_size=params.batch_size,
    )
    # Each stage holds only its live set: keep the two figures used below,
    # and drop every array as soon as the next stage's input exists.
    nnz, num_draws = sparsifier.nnz, sparsifier.num_draws
    logger.debug(
        "lightne: sparsifier nnz=%d from %d draws (%.1f%% of draws kept "
        "distinct)", nnz, num_draws, 100.0 * nnz / max(1, num_draws),
    )
    with telemetry.stage("svd", rank=params.dimension):
        matrix = sparsifier_to_netmf_matrix(
            graph, sparsifier, negative_samples=params.negative_samples
        )
        del sparsifier  # the count matrix
        health.checkpoint("svd.netmf_matrix", matrix)
        # Cast once, after the checkpoint (its digest is the float64
        # matrix's on both precisions): the float64 matrix dies here and the
        # rSVD reads the operator it factorizes without copying it again.
        # The cast is written in column tiles for the rSVD's sketch block
        # where that layout pays (``kernels.tile_csr``).
        dtype = resolve_precision(params.precision)
        sketch = min(params.dimension + OVERSAMPLING, matrix.shape[0])
        matrix = tile_csr(matrix, dtype, sketch * dtype.itemsize)
        # The trunc-log NetMF matrix is symmetric by construction (its
        # pattern exactly, its values to rounding): the rSVD runs its Aᵀ·
        # passes on the row-blocked CSR kernel.  Vᵀ is never bound.
        u, sigma = factorize(
            matrix, params.dimension, factorizer=params.factorizer,
            seed=ctx.rng, precision=params.precision,
            workers=params.workers, symmetric=True,
        )[:2]
        vectors = embedding_from_svd(u, sigma)
        del matrix, u  # propagation needs only `vectors` and the graph
        health.checkpoint("svd", vectors)
    if params.propagate:
        with telemetry.stage("propagation", order=params.propagation_order):
            vectors = spectral_propagation(
                graph,
                vectors,
                order=params.propagation_order,
                mu=params.mu,
                theta=params.theta,
                precision=params.precision,
                workers=params.workers,
            )
        health.checkpoint("propagation", vectors)
    ctx.span.set_attribute("sparsifier_nnz", nnz)
    return vectors


LIGHTNE_PIPELINE = PipelineSpec(name="lightne", body=_lightne_body)

# The named preset of the same body.  It keeps its own method name
# (``EmbeddingResult.method``, root span, ledger identity); the pins are
# written here once and read by the registry and by the entry point below.
NETSMF_PIPELINE = PipelineSpec(name="netsmf", body=_lightne_body)
NETSMF_PINS = {"downsample": False, "propagate": False}


def lightne_embedding(
    graph: CSRGraph,
    params: LightNEParams = LightNEParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Run the full LightNE pipeline on ``graph``.

    Returns an :class:`EmbeddingResult` whose ``run`` is the ``lightne`` root
    span: ``timer`` is its Table-5 stage breakdown, and the ``sparsifier``
    stage carries the sampling figures (``draws``, ``distinct``, ``batches``,
    ...).

    When telemetry is enabled (:func:`repro.telemetry.enable`) the run is
    traced in full — per-batch sampling and per-iteration SVD/propagation
    children under the stages — and ``run.counters`` holds the run's
    counters.
    """
    return run_pipeline(graph, LIGHTNE_PIPELINE, params, seed)


def netsmf_embedding(
    graph: CSRGraph,
    params: LightNEParams = LightNEParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """NetSMF [22], the paper's §3.1 baseline: the LightNE pipeline with the
    downsampling coin and spectral propagation pinned off, whatever
    ``params`` says (every draw is kept; stages ``sparsifier`` / ``svd``)."""
    return run_pipeline(
        graph, NETSMF_PIPELINE, replace(params, **NETSMF_PINS), seed
    )

