r"""PSNE-style push-based PPR proximity sparsification.

Instead of drawing ``M`` PathSampling walks, this backend *computes* the
walk mass each draw would estimate.  Recall (see
:mod:`repro.sparsifier.builder`) that with ``P = D⁻¹A`` the ``r``-step walk
matrix is ``A_r = D·Pʳ`` and a PathSampling aggregate satisfies

    E[W(x, y)] = (M / vol(G)) · d_x · S(x, y),    S = (1/T) Σ_{r=1}^T Pʳ.

The PPR backend evaluates ``S̃ ≈ S`` row-by-row with a batched sparse
frontier iteration — the vectorized analog of PSNE's forward push.  Each
source ``x`` carries a *per-source sample budget*

    M_x = M · d_x / vol(G)

(the degree-weighted seeding: a uniform-edge walk visits ``x`` with
stationary frequency ``d_x / vol``), and frontier entries whose final
contribution to the expected count ``M_x · S̃(x, y)`` would fall below the
``resolution`` threshold are pruned — the per-source residual thresholding
that keeps the frontier sparse and the output nnz proportional to ``M``.

The emitted integer-ish counts ``t(x, y) = M_x · S̃(x, y)`` are randomized-
rounded below one expected draw (kept with probability ``t`` at weight 1,
kept deterministically at weight ``t`` otherwise), so the aggregate is an
unbiased estimate of the *same* ``W`` the PathSampling backend produces and
feeds the unchanged estimator
:func:`repro.sparsifier.builder.sparsifier_to_netmf_matrix` with
``num_draws = M``.

Determinism contract: sources are processed in fixed-size batches whose
decomposition depends only on ``batch_size``; the rounding coins of batch
``i`` come from the ``i``-th RNG stream of
:func:`repro.utils.rng.spawn_batch_rngs`.  The result is therefore
bit-identical at every worker count on both the thread and the process
execution substrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.errors import SamplingError
from repro.graph import GraphLike
from repro.graph.csr import CSRGraph
from repro.sparsifier.aggregation import merge_runs, reduce_pairs
from repro.sparsifier.path_sampling import (
    DEFAULT_BATCH_SIZE,
    PathSamplingConfig,
    walk_slabs,
)
from repro.utils.parallel import default_workers, resolve_backend
from repro.utils.rng import SeedLike, ensure_rng, spawn_batch_rngs

# Sources per slab are capped so one frontier block stays cache-friendly even
# with a walk-oriented (draws per slab) batch_size.
_MAX_SOURCE_BATCH = 16_384


def walk_operator(graph: GraphLike) -> Tuple[sp.csr_matrix, np.ndarray, float]:
    """``(P, degrees, vol)`` — the row-stochastic transition matrix ``D⁻¹A``.

    Rows of isolated vertices are zero (their walk mass dies, matching the
    PathSampling process which can never seed there).  Pure deterministic
    function of the graph, so parent and pool workers agree bit for bit.
    """
    graph = graph.flat()
    degrees = graph.weighted_degrees().astype(np.float64)
    adjacency = graph.adjacency(dtype=np.float64)
    inv = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-300), 0.0)
    operator = (sp.diags(inv) @ adjacency).tocsr()
    return operator, degrees, float(graph.volume)


def _prune_rows(matrix: sp.csr_matrix, floors: np.ndarray) -> sp.csr_matrix:
    """Drop entries of row ``i`` below ``floors[i]`` (residual thresholding)."""
    counts = np.diff(matrix.indptr)
    keep = matrix.data >= np.repeat(floors, counts)
    if keep.all():
        return matrix
    rows = np.repeat(np.arange(matrix.shape[0]), counts)[keep]
    return sp.csr_matrix(
        (matrix.data[keep], (rows, matrix.indices[keep])), shape=matrix.shape
    )


def ppr_batch_counts(
    operator: sp.csr_matrix,
    degrees: np.ndarray,
    volume: float,
    sources: np.ndarray,
    *,
    window: int,
    num_samples: int,
    resolution: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Expected-count triples for one source slab, plus its push count:
    ``(rows, cols, weights, pushes)``.

    Runs ``window`` frontier pushes from the given sources, prunes entries
    whose expected count ``M_x·S̃(x,y)`` would land below ``resolution``, and
    randomized-rounds sub-unit counts with ``rng`` (one coin array per slab —
    the batch's RNG stream).  ``pushes`` is the frontier nnz summed over the
    pushes, before pruning.
    """
    batch = sources.size
    n = operator.shape[0]
    budgets = num_samples * degrees[sources] / volume
    # Frontier entries contribute M_x·p/T to the final count: prune at the
    # walk-probability level that maps to ``resolution`` expected samples.
    floors = np.where(
        budgets > 0, resolution * window / np.maximum(budgets, 1e-300), np.inf
    )
    frontier = sp.csr_matrix(
        (np.ones(batch), (np.arange(batch), sources)), shape=(batch, n)
    )
    accumulator = None
    pushes = 0
    for _ in range(window):
        frontier = (frontier @ operator).tocsr()
        pushes += int(frontier.nnz)
        frontier = _prune_rows(frontier, floors)
        accumulator = frontier if accumulator is None else accumulator + frontier
        if frontier.nnz == 0:
            break
    # t(x, y) = M_x · S̃(x, y) with S̃ = accumulated frontier mass / T.
    expected = (sp.diags(budgets / window) @ accumulator.tocsr()).tocoo()
    values = expected.data
    # Unbiased rounding: keep sub-unit counts with probability t at weight 1,
    # keep t >= 1 deterministically at weight t (rng.random() < 1 always).
    keep = rng.random(values.size) < np.minimum(values, 1.0)
    rows = sources[expected.row[keep]].astype(np.int64)
    cols = expected.col[keep].astype(np.int64)
    weights = np.maximum(values[keep], 1.0)
    return rows, cols, weights, pushes


@dataclass(frozen=True)
class _PushContext:
    """What one PPR slab reads: the walk operator and the scalar config."""

    operator: sp.csr_matrix
    degrees: np.ndarray
    volume: float
    window: int
    num_samples: int
    resolution: float

    def walk(self, index: int, sources: np.ndarray, rng: np.random.Generator):
        """Push from ``sources``, rounding on the slab's own RNG stream."""
        with telemetry.span(
            "sparsifier.ppr.batch", batch=index, size=int(sources.size)
        ) as span:
            rows, cols, weights, pushes = ppr_batch_counts(
                self.operator, self.degrees, self.volume, sources,
                window=self.window, num_samples=self.num_samples,
                resolution=self.resolution, rng=rng,
            )
            run = reduce_pairs(rows, cols, weights, self.operator.shape[0])
        elapsed = getattr(span, "duration", None)
        if elapsed is not None:
            telemetry.histogram("sparsifier.ppr.batch_seconds").observe(elapsed)
            telemetry.counter("sparsifier.ppr.batches").inc()
            telemetry.counter("sparsifier.ppr.entries").inc(rows.size)
        return run, rows.size, pushes


def _push_context(
    graph: CSRGraph, window: int, num_samples: int, resolution: float
) -> _PushContext:
    return _PushContext(*walk_operator(graph), window, num_samples, resolution)


def sample_ppr_counts(
    graph: GraphLike,
    config: PathSamplingConfig,
    seed: SeedLike = None,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: Optional[int] = 1,
    backend: Optional[str] = None,
    stats: Optional[Dict[str, float]] = None,
    resolution: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the push-based PPR estimator end to end.

    Returns ``(rows, cols, sums, draws)`` with the same contract as
    :func:`repro.sparsifier.path_sampling.sample_sparsifier_edges`: the
    reduced upper triangle (each slab's triples go through the same
    canonical reducer, the runs through the same fold) of an estimate of the
    count matrix ``W`` with ``E[W(x,y)] = (M/vol)·d_x·S(x,y)``, and ``draws``
    is the nominal sample budget ``M`` the downstream estimator divides by.

    ``config`` is the shared :class:`PathSamplingConfig` — ``window`` is the
    push depth ``T``, ``num_samples`` the budget ``M``; the downsampling
    knobs do not apply (the residual threshold plays their role and the
    budget already scales nnz).  Sources are processed in fixed slabs of
    ``min(batch_size, 16384)`` rows with per-batch RNG streams, so the output
    is bit-identical for every ``workers`` value on both the ``"thread"``
    and ``"process"`` substrates (the latter rebuilds the walk operator per
    worker via a pool initializer, memmapping CSR v2 graphs when available).

    ``resolution`` is the residual threshold in units of expected samples:
    entries whose expected count would fall below it are pruned during the
    push (biasing the estimate low the same way dropped walk samples do).
    """
    rng = ensure_rng(seed)
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if batch_size < 1:
        raise SamplingError(f"batch_size must be >= 1, got {batch_size}")
    if resolution <= 0:
        raise SamplingError(f"resolution must be > 0, got {resolution}")
    if graph.num_edges == 0:
        raise SamplingError("cannot sparsify an empty graph")
    if config.num_samples <= 0:
        raise SamplingError("config.num_samples must be set (> 0)")

    graph = graph.flat()
    n = graph.num_vertices
    source_batch = max(1, min(int(batch_size), _MAX_SOURCE_BATCH))
    starts = list(range(0, n, source_batch))
    if stats is not None:
        stats["draws"] = int(config.num_samples)
        stats["batches"] = len(starts)
        stats["batch_size"] = int(source_batch)
        stats["workers"] = int(workers)
        stats["backend"] = backend
        stats["resolution"] = float(resolution)

    all_sources = np.arange(n, dtype=np.int64)
    batch_rngs = spawn_batch_rngs(rng, len(starts))
    slabs = [
        (index, all_sources[start : start + source_batch], batch_rng)
        for index, (start, batch_rng) in enumerate(zip(starts, batch_rngs))
    ]
    pushed = walk_slabs(
        _push_context, graph,
        (config.window, config.num_samples, resolution),
        slabs, workers=workers, backend=backend, label="sparsifier.ppr",
    )
    tally = {"walk_samples": 0, "pushes": 0}

    def runs():
        for run, entries, pushes in pushed:
            tally["walk_samples"] += entries
            tally["pushes"] += pushes
            yield run

    rows, cols, sums = merge_runs(runs(), n, stats=stats)
    if stats is not None:
        stats.update(tally)
    telemetry.counter("sparsifier.draws").inc(int(config.num_samples))
    return rows, cols, sums, int(config.num_samples)
