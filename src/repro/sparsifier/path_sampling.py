"""PathSampling (Algorithm 1) and the downsampled per-edge variant (Algorithm 2).

Algorithm 1 takes a seed edge ``(u, v)`` and a walk length ``r``: it picks a
uniform split ``s ∈ [0, r-1]``, walks ``u`` for ``s`` steps and ``v`` for
``r - 1 - s`` steps, and returns the endpoint pair ``(u', v')``.  A short
derivation (see :mod:`repro.sparsifier.builder`) shows the output pair is
distributed proportional to the ``r``-step walk matrix
``A_r = A (D⁻¹A)^{r-1}``, which is what makes the sparsifier unbiased.

Algorithm 2 replaces "pick M uniformly random seed edges" by a per-edge loop
that is cache-friendly and compression-friendly: every edge ``e`` runs the
sampler ``n_e = ⌊M/m⌋ + Bernoulli({M/m})`` times, and each run first flips the
downsampling coin ``p_e``; survivors carry weight ``1/p_e``.

Everything here is vectorized: seed edges are expanded into flat arrays,
grouped by walk length ``r``, and the two walks are advanced in lock-step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import SamplingError
from repro.graph import GraphLike
from repro.graph.csr import CSRGraph
from repro.graph.walks import step_random_walk
from repro.sparsifier.downsampling import downsampling_probabilities
from repro.utils.parallel import default_workers, parallel_map, resolve_backend
from repro.utils.rng import SeedLike, ensure_rng, spawn_batch_rngs


@dataclass(frozen=True)
class PathSamplingConfig:
    """Parameters of the sparsifier sampling stage.

    Attributes
    ----------
    window:
        Context window size ``T`` (walk lengths are uniform in ``[1, T]``).
    num_samples:
        Expected total number of PathSampling draws ``M`` (before the
        downsampling coin).  The paper parameterizes this as multiples of
        ``T·m`` — use :meth:`samples_for_multiplier`.
    downsample:
        Apply the degree-based downsampling coin (LightNE) or keep every draw
        (plain NetSMF).
    downsample_constant:
        The constant ``C`` (``log n`` when ``None``).
    """

    window: int = 10
    num_samples: int = 0
    downsample: bool = True
    downsample_constant: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise SamplingError(f"window T must be >= 1, got {self.window}")
        if self.num_samples < 0:
            raise SamplingError(
                f"num_samples must be non-negative, got {self.num_samples}"
            )

    @staticmethod
    def samples_for_multiplier(graph: GraphLike, window: int, multiplier: float) -> int:
        """``M = multiplier · T · m`` — the paper's M=0.1Tm … 20Tm notation."""
        return int(round(multiplier * window * graph.num_edges))


def path_sample_pairs(
    graph: GraphLike,
    seed_u: np.ndarray,
    seed_v: np.ndarray,
    lengths: np.ndarray,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized Algorithm 1 over arrays of seed edges.

    For each ``i``: picks ``s ~ Uniform[0, lengths[i]-1]``, walks
    ``seed_u[i]`` for ``s`` steps and ``seed_v[i]`` for ``lengths[i]-1-s``
    steps, returning the two walk endpoints.
    """
    rng = ensure_rng(seed)
    seed_u = np.asarray(seed_u, dtype=np.int64)
    seed_v = np.asarray(seed_v, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not (seed_u.shape == seed_v.shape == lengths.shape):
        raise SamplingError("seed_u, seed_v and lengths must be parallel arrays")
    if lengths.size and lengths.min() < 1:
        raise SamplingError("walk lengths must be >= 1")
    splits = (rng.random(lengths.size) * lengths).astype(np.int64)
    u_prime = step_random_walk(graph, seed_u, splits, rng)
    v_prime = step_random_walk(graph, seed_v, lengths - 1 - splits, rng)
    return u_prime, v_prime


def _per_edge_sample_counts(
    num_edges: int, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """``n_e = ⌊M/m⌋ + Bernoulli({M/m})`` per edge (Algorithm 2, line 3)."""
    base, frac = divmod(num_samples, num_edges)
    counts = np.full(num_edges, base, dtype=np.int64)
    counts += rng.random(num_edges) < (frac / num_edges)
    return counts


def _weighted_sample_counts(
    edge_weights: np.ndarray, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-edge counts with expectation ``M · w_e / Σw``.

    The unweighted uniform-edge process generalizes to weighted graphs by
    seeding proportional to edge weight (a random walk traverses edge ``e``
    with stationary frequency ``w_e / Σw``); floor + Bernoulli keeps the
    realization integral and the expectation exact per edge.
    """
    expectation = num_samples * edge_weights / edge_weights.sum()
    base = np.floor(expectation).astype(np.int64)
    frac = expectation - base
    return base + (rng.random(edge_weights.size) < frac)


# The sampler context a pool worker's initializer built (``None`` in every
# other process): tasks then pickle only their slab and its RNG stream.
_WORKER_CONTEXT = None


def _worker_init(build, graph_spec: tuple, build_args: tuple) -> None:
    """Pool initializer: open the graph and build this worker's context.

    ``("mmap", path)`` reopens the CSR v2 container memmapped, so every
    worker shares the page cache instead of holding a private copy of the
    graph; ``("pickle", graph)`` is one pickled copy per worker.
    """
    global _WORKER_CONTEXT
    kind, graph = graph_spec
    if kind == "mmap":
        from repro.graph.io import load_csr

        graph = load_csr(graph)
    _WORKER_CONTEXT = build(graph, *build_args)


def _worker_walk(index: int, batch: np.ndarray, rng: np.random.Generator):
    return _WORKER_CONTEXT.walk(index, batch, rng)


def walk_slabs(
    build,
    graph: CSRGraph,
    build_args: tuple,
    slabs: Sequence[tuple],
    *,
    workers: int,
    backend: str,
    label: str,
    context=None,
) -> list:
    """``walk(index, batch, rng)`` for every slab, in slab order.

    One task function serves both substrates.  Threads (and the serial
    loop) call it on ``context`` — ``build(graph, *build_args)`` when the
    caller has none yet.  ``backend="process"`` calls it on the context each
    pool worker built for itself with the same module-level ``build``;
    contexts are pure functions of the graph and the arguments, so a slab
    gives the same bits wherever it runs.
    """
    if backend == "process" and workers > 1 and len(slabs) > 1:
        mmap_source = getattr(graph, "mmap_source", None)
        spec = ("mmap", mmap_source) if mmap_source else ("pickle", graph)
        return parallel_map(
            _worker_walk, slabs, workers=workers, backend="process",
            initializer=_worker_init, initargs=(build, spec, build_args),
            label=label,
        )
    if context is None:
        context = build(graph, *build_args)
    return parallel_map(context.walk, slabs, workers=workers, label=label)


@dataclass(frozen=True)
class _WalkContext:
    """What one PathSampling slab reads: the flat walk graph and the
    per-seed-edge arrays derived from it."""

    graph: CSRGraph
    src: np.ndarray
    dst: np.ndarray
    edge_weights: Optional[np.ndarray]
    probs: np.ndarray
    window: int

    def walk(self, index: int, batch: np.ndarray, rng: np.random.Generator):
        """Walk the seed edges ``batch`` on the slab's own RNG stream."""
        with telemetry.span(
            "sparsifier.batch", batch=index, size=int(batch.size)
        ) as span:
            lengths = rng.integers(1, self.window + 1, size=batch.size)
            # Randomize seed orientation: (u,v) vs (v,u) — the uniform-edge
            # process is orientation-symmetric.
            flip = rng.random(batch.size) < 0.5
            s_u = np.where(flip, self.dst[batch], self.src[batch])
            s_v = np.where(flip, self.src[batch], self.dst[batch])
            u_prime, v_prime = path_sample_pairs(
                self.graph, s_u, s_v, lengths, rng
            )
        elapsed = getattr(span, "duration", None)
        if elapsed is not None:
            telemetry.histogram("sparsifier.batch_seconds").observe(elapsed)
            telemetry.counter("sparsifier.batches").inc()
            telemetry.counter("sparsifier.walk_samples").inc(batch.size)
        return u_prime, v_prime, 1.0 / self.probs[batch]


def _walk_context(graph: CSRGraph, config: PathSamplingConfig) -> _WalkContext:
    """Seed edges (one per undirected non-loop edge) and their coin ``p_e``."""
    if graph.num_edges == 0:
        raise SamplingError("cannot sample from an empty graph")
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    # Self-loops are not seedable, so every per-edge array is sized by the
    # masked count, not ``graph.num_edges``.
    if src.size == 0:
        raise SamplingError("graph has no non-loop edges to seed from")
    edge_w = graph.weights[mask] if graph.weights is not None else None
    if config.downsample:
        probs = downsampling_probabilities(
            src,
            dst,
            graph.weighted_degrees(),
            constant=config.downsample_constant,
            edge_weights=edge_w,
        )
    else:
        probs = np.ones(src.size)
    return _WalkContext(graph, src, dst, edge_w, probs, config.window)


def sample_sparsifier_edges(
    graph: GraphLike,
    config: PathSamplingConfig,
    seed: SeedLike = None,
    *,
    batch_size: int = 2_000_000,
    workers: Optional[int] = 1,
    backend: Optional[str] = None,
    stats: Optional[Dict[str, float]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run Algorithm 2 end to end.

    Returns ``(u', v', weights, draws)`` where ``weights[i] = 1/p_e`` of the
    seed edge of sample ``i`` (all ones when downsampling is off) and
    ``draws`` is the realized number of PathSampling trials before the coin
    (the paper's ``M``; needed for the estimator's normalization).

    Work is split into fixed-size slabs of at most ``batch_size`` surviving
    seeds — bounding peak memory regardless of ``workers`` — and each slab is
    walked with its own RNG stream derived from the *batch index* via a
    ``SeedSequence``.  Slabs run on a thread pool when ``workers > 1`` (numpy
    walk kernels release the GIL — the Python analog of the paper's parallel
    ``MapEdges``) and results are concatenated in batch order, so for a fixed
    ``seed`` and ``batch_size`` the output is bit-identical for every worker
    count.  ``workers=None`` resolves to
    :func:`repro.utils.parallel.default_workers`.

    ``backend="process"`` walks the slabs in worker *processes* instead:
    each worker rebuilds the sampling context once via a pool initializer —
    reopening the graph's CSR v2 container memmapped when the graph was
    loaded with ``mmap`` (``graph.mmap_source``), falling back to one
    pickled copy otherwise — and tasks ship only a batch of seed indices
    plus the batch's RNG stream.  The per-batch-index streams make the
    result bit-identical to the thread backend at every worker count.

    ``stats``, when given, receives sampling counters: realized draws,
    surviving walk samples, batch count/size and the resolved worker count.
    When telemetry is enabled (:func:`repro.telemetry.enable`) each slab is
    additionally traced as a ``sparsifier.batch`` span under the caller's
    current span, with per-batch latency and sample-count metrics recorded
    in the global registry.
    """
    rng = ensure_rng(seed)
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if batch_size < 1:
        raise SamplingError(f"batch_size must be >= 1, got {batch_size}")
    graph = graph.flat()
    context = _walk_context(graph, config)
    if config.num_samples <= 0:
        raise SamplingError("config.num_samples must be set (> 0)")
    m = context.src.size

    if context.edge_weights is not None:
        counts = _weighted_sample_counts(
            context.edge_weights, config.num_samples, rng
        )
    else:
        counts = _per_edge_sample_counts(m, config.num_samples, rng)
    total_draws = int(counts.sum())

    # Expand seeds, apply the coin per draw, then walk survivors in batches.
    seed_edge = np.repeat(np.arange(m, dtype=np.int64), counts)
    if config.downsample:
        survive = rng.random(seed_edge.size) < context.probs[seed_edge]
        seed_edge = seed_edge[survive]

    starts = list(range(0, seed_edge.size, batch_size))
    if stats is not None:
        stats["draws"] = total_draws
        stats["walk_samples"] = int(seed_edge.size)
        stats["batches"] = len(starts)
        stats["batch_size"] = int(batch_size)
        stats["workers"] = int(workers)
        stats["backend"] = backend
    if seed_edge.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0), total_draws

    # One RNG stream per batch *index* (not per worker chunk): the batch
    # decomposition depends only on ``batch_size``, so the sampled walks are
    # independent of how many threads execute them.
    batch_rngs = spawn_batch_rngs(rng, len(starts))
    slabs = [
        (index, seed_edge[start : start + batch_size], batch_rng)
        for index, (start, batch_rng) in enumerate(zip(starts, batch_rngs))
    ]
    results = walk_slabs(
        _walk_context, graph, (config,), slabs, workers=workers,
        backend=backend, label="sparsifier.sampling", context=context,
    )
    telemetry.counter("sparsifier.draws").inc(total_draws)
    return (
        np.concatenate([r[0] for r in results]),
        np.concatenate([r[1] for r in results]),
        np.concatenate([r[2] for r in results]),
        total_draws,
    )
