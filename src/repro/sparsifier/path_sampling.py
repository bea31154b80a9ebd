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

Everything here is vectorized and streamed: the seed edges are cut into
slabs of about ``batch_size`` draws, a slab expands only its own range into
flat arrays, flips its coins, advances the two walks in lock-step and
sort-reduces its endpoint pairs to a run of canonical keys, and the runs are
merged in slab order (:func:`sample_sparsifier_edges`) — so what is resident
follows the slab and the sparsifier's distinct pairs, not the draw budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.walks import step_random_walk
from repro.sparsifier.aggregation import merge_runs, reduce_pairs
from repro.sparsifier.downsampling import downsampling_probabilities
from repro.utils.parallel import default_workers, parallel_imap, resolve_backend
from repro.utils.rng import SeedLike, ensure_rng, spawn_batch_rngs


# Draws per slab when the caller does not say.  docs/performance.md ("The
# sparsifier as a stream") has the sweep: the stage's time is flat from 2**16
# up, while what a pool thread's malloc arena keeps after its slabs — which
# the later stages' peak sits on — doubles with every doubling.
DEFAULT_BATCH_SIZE = 65_536


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
    def samples_for_multiplier(graph: CSRGraph, window: int, multiplier: float) -> int:
        """``M = multiplier · T · m`` — the paper's M=0.1Tm … 20Tm notation."""
        return int(round(multiplier * window * graph.num_edges))


def path_sample_pairs(
    graph: CSRGraph,
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
    with stationary frequency ``w_e / Σw``; a self-loop counts half, see
    :func:`_walk_context`); floor + Bernoulli keeps the realization integral
    and the expectation exact per edge.
    """
    expectation = num_samples * edge_weights / edge_weights.sum()
    base = np.floor(expectation).astype(np.int64)
    frac = expectation - base
    return base + (rng.random(edge_weights.size) < frac)


@dataclass(frozen=True)
class _WalkContext:
    """What one PathSampling slab reads: the flat walk graph and the
    per-seed-edge arrays derived from it (``seed_mass`` is ``None`` when
    seeding is uniform, ``probs`` without the downsampling coin)."""

    graph: CSRGraph
    src: np.ndarray
    dst: np.ndarray
    seed_mass: Optional[np.ndarray]
    probs: Optional[np.ndarray]
    window: int

    def draw(self, first: int, draws: np.ndarray, rng: np.random.Generator):
        """Per-draw triples ``(u', v', 1/p_e)`` of the seed edges ``first,
        first + 1, …``, edge ``first + i`` running ``draws[i]`` trials.

        An edge's coins are one binomial draw (``draws[i]`` independent
        flips of ``p_e`` and their count have the same law); each survivor
        walks from the edge's ``src <= dst`` ends.  The orientation is not
        randomised: the split is uniform, so the *unordered* pair already
        has the symmetrised law, which is all a canonical key keeps.
        """
        edges = slice(first, first + draws.size)
        kept = draws if self.probs is None else rng.binomial(draws, self.probs[edges])
        # Slab-local seed-edge index of every survivor.
        seeds = np.repeat(np.arange(draws.size), kept)
        lengths = rng.integers(1, self.window + 1, size=seeds.size)
        u_prime, v_prime = path_sample_pairs(
            self.graph, self.src[edges][seeds], self.dst[edges][seeds], lengths, rng
        )
        if self.probs is None:
            return u_prime, v_prime, np.ones(seeds.size)
        return u_prime, v_prime, (1.0 / self.probs[edges])[seeds]

    def walk(
        self, index: int, first: int, draws: np.ndarray, rng: np.random.Generator
    ):
        """One slab of the stream on its own RNG stream: its draws reduced
        to a run, and how many of them survived the coin."""
        with telemetry.span("sparsifier.batch", batch=index, size=int(draws.sum())):
            u_prime, v_prime, weights = self.draw(first, draws, rng)
            run = reduce_pairs(u_prime, v_prime, weights, self.graph.num_vertices)
        telemetry.count("sparsifier.batches")
        telemetry.count("sparsifier.walk_samples", u_prime.size)
        return run, u_prime.size


def _walk_context(graph: CSRGraph, config: PathSamplingConfig) -> _WalkContext:
    """Seed edges (one per undirected edge, self-loops included), their
    seeding mass and their coin ``p_e``."""
    if graph.num_edges == 0:
        raise SamplingError("cannot sample from an empty graph")
    src, dst = graph.edge_endpoints()
    mask = src <= dst
    src, dst = src[mask], dst[mask]
    loops = src == dst
    if loops.all():
        raise SamplingError("graph has no non-loop edges to seed from")
    edge_w = graph.weights[mask] if graph.weights is not None else None
    # A draw seeds a uniformly random *entry* of A: an edge owns two (one
    # per orientation), a self-loop its one diagonal entry — half the mass.
    seed_mass = edge_w
    if loops.any():
        seed_mass = np.where(loops, 0.5, 1.0) * (1.0 if edge_w is None else edge_w)
    probs = None
    if config.downsample:
        probs = downsampling_probabilities(
            src,
            dst,
            graph.weighted_degrees(),
            constant=config.downsample_constant,
            edge_weights=edge_w,
        )
    return _WalkContext(graph, src, dst, seed_mass, probs, config.window)


def _seed_edge_draws(
    context: _WalkContext, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Algorithm 2, line 3: how many trials ``n_e`` each seed edge runs."""
    if num_samples <= 0:
        raise SamplingError("config.num_samples must be set (> 0)")
    if context.seed_mass is not None:
        return _weighted_sample_counts(context.seed_mass, num_samples, rng)
    return _per_edge_sample_counts(context.src.size, num_samples, rng)


def per_draw_samples(
    graph: CSRGraph, config: PathSamplingConfig, seed: SeedLike = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Algorithm 2 as one unreduced slab: ``(u', v', weights, draws)`` with
    one triple per *surviving draw* (``weights[i] = 1/p_e`` of its seed
    edge, ones without downsampling) and ``draws`` the trials before the
    coin.

    This is what the single slab of ``sample_sparsifier_edges(graph, config,
    seed, batch_size=∞)`` holds before it packs and reduces, draw for draw —
    the input the aggregator ablations compare on and the sampling-law
    tests count.  Pairs come in the seed edge's fixed ``src <= dst``
    orientation; it is the unordered pair ``{u', v'}`` that follows the
    walk-matrix law.  Memory is ``O(M)``.
    """
    rng = ensure_rng(seed)
    context = _walk_context(graph, config)
    draws = _seed_edge_draws(context, config.num_samples, rng)
    (slab_rng,) = spawn_batch_rngs(rng, 1)
    return (*context.draw(0, draws, slab_rng), int(draws.sum()))


def sample_sparsifier_edges(
    graph: CSRGraph,
    config: PathSamplingConfig,
    seed: SeedLike = None,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: Optional[int] = 1,
    backend: Optional[str] = None,
    stats: Optional[Dict[str, float]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run Algorithm 2 end to end, as a stream.

    Returns ``(rows, cols, sums, draws)``: the *reduced* upper triangle of
    the sample aggregate — distinct pairs ``rows <= cols`` in increasing
    ``row·n + col`` order, ``sums`` the total weight (``1/p_e`` per
    surviving draw, 1 without downsampling) of the draws whose endpoints
    were that unordered pair — and ``draws``, the realized number of
    PathSampling trials before the coin (the paper's ``M``; needed for the
    estimator's normalization).

    The parent draws the per-edge trial counts ``n_e`` and cuts the seed
    edges into contiguous ranges of about ``batch_size`` *draws* each (an
    edge is never split, so a range holds at least one edge however small
    ``batch_size`` is).  A slab — on its own RNG stream, derived from the
    *slab index* via a ``SeedSequence`` — expands only its range, flips its
    coins, walks the survivors and sort-reduces them to a ``(keys, sums)``
    run (:func:`~repro.sparsifier.aggregation.reduce_pairs`); the parent
    consumes the runs in slab order, at most ``2·workers`` in flight, and
    folds them (:func:`~repro.sparsifier.aggregation.merge_runs`).  What is
    resident is therefore about ``13·workers·batch_size·8 B`` of slab
    workspace plus ``~6·nnz·16 B`` of runs — it follows the sparsifier's
    distinct pairs, not ``M`` — and for a fixed ``seed`` and ``batch_size``
    the output is bit-identical for every worker count and completion
    order.  ``workers=None`` resolves to
    :func:`repro.utils.parallel.default_workers`.

    Slabs run on a thread pool when ``workers > 1`` (numpy walk kernels
    release the GIL — the Python analog of the paper's parallel
    ``MapEdges``).  ``backend`` is validated and recorded in ``stats``; it
    selects nothing here (it decides where the propagation buffers live).

    ``stats``, when given, receives the per-draw counters — realized
    ``draws``, ``walk_samples`` (draws that survived the coin), ``batches``,
    ``batch_size``, resolved ``workers``, ``backend`` — and the reducer's
    ``distinct`` and ``peak_table_bytes``.  When telemetry is enabled
    (:func:`repro.telemetry.enable`) each slab is additionally traced as a
    ``sparsifier.batch`` span under the caller's current span, and the
    ``sparsifier.batches`` / ``sparsifier.walk_samples`` counters are
    bumped in the run's registry.
    """
    rng = ensure_rng(seed)
    # Checked and recorded only: the frozen benchmark replay still passes it.
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if batch_size < 1:
        raise SamplingError(f"batch_size must be >= 1, got {batch_size}")
    if workers < 1:
        raise SamplingError(f"workers must be >= 1, got {workers}")
    tally = {"draws": 0, "walk_samples": 0, "batches": 0}

    def runs():
        # This frame owns the context, the trial counts and the slabs: they
        # are released when it finishes, before the reducer's last fold
        # allocates the result.
        context = _walk_context(graph, config)
        draws = _seed_edge_draws(context, config.num_samples, rng)
        tally["draws"] = int(draws.sum())
        # A slab is the edges whose first draw falls in the same
        # batch_size-wide window of the draw sequence.
        window = np.cumsum(draws)
        window -= draws
        window //= batch_size
        cuts = np.flatnonzero(window[1:] != window[:-1]) + 1
        del window
        bounds = [0, *cuts.tolist(), draws.size]
        # One RNG stream per slab *index* (not per worker chunk): the slab
        # decomposition depends only on ``batch_size``, so the sampled walks
        # are independent of how many workers execute them.
        slab_rngs = spawn_batch_rngs(rng, len(bounds) - 1)
        slabs = [
            (index, first, draws[first:stop], slab_rng)
            for index, (first, stop, slab_rng)
            in enumerate(zip(bounds, bounds[1:], slab_rngs))
        ]
        tally["batches"] = len(slabs)
        for run, survivors in parallel_imap(
            context.walk, slabs, workers=workers, window=2 * workers,
        ):
            tally["walk_samples"] += survivors
            yield run

    rows, cols, sums = merge_runs(runs(), graph.num_vertices, stats=stats)
    if stats is not None:
        stats.update(
            tally, batch_size=int(batch_size), workers=int(workers),
            backend=backend,
        )
    telemetry.count("sparsifier.draws", tally["draws"])
    return rows, cols, sums, tally["draws"]
