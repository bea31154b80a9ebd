"""Pluggable sparsifier backends — the estimator layer behind LightNE/NetSMF.

The paper's pipeline hardwired one recipe (PathSampling walks into a
hash-sharded aggregate).  This module turns the recipe into a *backend*: a
:class:`SparsifierBackend` builds the count matrix ``W`` whose symmetrized,
rescaled trunc-log is the NetMF estimator
(:func:`repro.sparsifier.builder.sparsifier_to_netmf_matrix`), and every
backend honors the same contract:

* ``build(graph, config, seed, ...) -> SparsifierResult`` where ``config``
  is the shared :class:`~repro.sparsifier.path_sampling.PathSamplingConfig`
  (window ``T``, budget ``M``);
* ``E[W(x, y)] = (M / vol(G)) · d_x · S(x, y)`` with
  ``S = (1/T)·Σ_{r=1..T}(D⁻¹A)^r``, and ``result.num_draws = M`` so the
  downstream normalization is backend-independent;
* bit-identical output for a fixed ``(seed, batch_size)`` at every worker
  count on both execution substrates (``"thread"``/``"process"``), via the
  per-batch RNG-stream decomposition;
* the stage lands on the caller's :class:`~repro.utils.timer.StageTimer`
  under ``"sparsifier"`` with the shared counters (walk_samples, batches,
  workers, samples_per_sec, peak table bytes), so traces, the run ledger and
  the regression gate see every backend the same way.

Backends:

``"path"`` (:class:`PathSamplingBackend`, default)
    The paper's Monte-Carlo pipeline, verbatim — delegates to
    :func:`repro.sparsifier.builder.build_netmf_sparsifier`.
``"ppr"`` (:class:`PPRBackend`)
    PSNE-style push-based personalized-PageRank proximity: computes the walk
    mass deterministically with per-source residual thresholding and
    randomized-rounds it into counts (:mod:`repro.sparsifier.ppr`).

Select per run with the ``sparsifier=`` field of ``LightNEParams``
(CLI: ``--sparsifier``).
"""

from __future__ import annotations

import abc
import time
from typing import ClassVar, Dict, Optional, Union

from repro import telemetry
from repro.errors import SamplingError
from repro.telemetry import health
from repro.graph.compression import CompressedGraph
from repro.graph.csr import CSRGraph
from repro.sparsifier.builder import (
    SparsifierResult,
    aggregate_to_counts,
    build_netmf_sparsifier,
    validate_sparsifier_graph,
)
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.sparsifier.ppr import sample_ppr_counts
from repro.utils.parallel import default_workers, resolve_backend
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timer import StageTimer

GraphLike = Union[CSRGraph, CompressedGraph]

# Stats keys promoted to StageTimer counters — the ledger/regression-gate
# contract shared by every backend (mirrors build_netmf_sparsifier).
_STAGE_COUNTERS = (
    "walk_samples", "batches", "workers", "samples_per_sec",
    "peak_table_bytes",
)


class SparsifierBackend(abc.ABC):
    """One way to build the NetMF count matrix ``W`` (contract above)."""

    name: ClassVar[str]

    @abc.abstractmethod
    def build(
        self,
        graph: GraphLike,
        config: PathSamplingConfig,
        seed: SeedLike = None,
        *,
        aggregator: str = "sort",
        timer: Optional[StageTimer] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        batch_size: int = 2_000_000,
    ) -> SparsifierResult:
        """Build and aggregate the count matrix for ``graph``."""


class PathSamplingBackend(SparsifierBackend):
    """The paper's Monte-Carlo sparsifier (downsampled PathSampling).

    A thin veneer over :func:`build_netmf_sparsifier` — same call, same RNG
    consumption, same aggregation — so embeddings through this backend are
    bit-identical to the pre-backend-layer pipeline.
    """

    name = "path"

    def build(
        self,
        graph: GraphLike,
        config: PathSamplingConfig,
        seed: SeedLike = None,
        *,
        aggregator: str = "sort",
        timer: Optional[StageTimer] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        batch_size: int = 2_000_000,
    ) -> SparsifierResult:
        return build_netmf_sparsifier(
            graph, config, seed, aggregator=aggregator, timer=timer,
            workers=workers, backend=backend, batch_size=batch_size,
        )


class PPRBackend(SparsifierBackend):
    """PSNE-style push-based PPR proximity sparsifier.

    Parameters
    ----------
    resolution:
        Residual threshold in expected samples — frontier entries whose
        final count contribution would fall below it are pruned during the
        push (see :func:`repro.sparsifier.ppr.sample_ppr_counts`).
    """

    name = "ppr"

    def __init__(self, resolution: float = 0.25) -> None:
        self.resolution = resolution

    def build(
        self,
        graph: GraphLike,
        config: PathSamplingConfig,
        seed: SeedLike = None,
        *,
        aggregator: str = "sort",
        timer: Optional[StageTimer] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        batch_size: int = 2_000_000,
    ) -> SparsifierResult:
        rng = ensure_rng(seed)
        backend = resolve_backend(backend)
        if workers is None:
            workers = default_workers()
        n = graph.num_vertices
        timer = timer if timer is not None else StageTimer()
        stats: Dict[str, float] = {}
        stats["weighted_seeding"] = float(validate_sparsifier_graph(graph))
        with timer.stage(
            "sparsifier", sparsifier=self.name, aggregator=aggregator,
            workers=workers, backend=backend,
        ):
            tic = time.perf_counter()
            with telemetry.span(
                "sparsifier.ppr", window=config.window,
                num_samples=config.num_samples,
            ):
                u, v, w, draws = sample_ppr_counts(
                    graph, config, rng, batch_size=batch_size,
                    workers=workers, backend=backend, stats=stats,
                    resolution=self.resolution,
                )
            stats["sampling_seconds"] = time.perf_counter() - tic
            stats["samples_per_sec"] = u.size / max(
                stats["sampling_seconds"], 1e-12
            )
            counts = aggregate_to_counts(
                u, v, w, n, aggregator=aggregator, workers=workers,
                backend=backend, stats=stats,
            )
        for name in _STAGE_COUNTERS:
            if name in stats:
                timer.set_counter("sparsifier", name, float(stats[name]))
        return SparsifierResult(
            counts=counts, num_draws=draws, window=config.window, stats=stats
        )


SPARSIFIER_BACKENDS: Dict[str, SparsifierBackend] = {
    PathSamplingBackend.name: PathSamplingBackend(),
    PPRBackend.name: PPRBackend(),
}


def sparsifier_backend_names() -> list:
    """Registered backend names, default first."""
    return list(SPARSIFIER_BACKENDS)


def get_sparsifier_backend(name: str) -> SparsifierBackend:
    """Look up a backend by name; unknown names raise :class:`SamplingError`."""
    try:
        return SPARSIFIER_BACKENDS[name]
    except KeyError:
        raise SamplingError(
            f"unknown sparsifier backend {name!r}; known backends: "
            f"{', '.join(sparsifier_backend_names())}"
        ) from None


def build_sparsifier(
    graph: GraphLike,
    config: PathSamplingConfig,
    seed: SeedLike = None,
    *,
    sparsifier: str = "path",
    aggregator: str = "sort",
    timer: Optional[StageTimer] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    batch_size: int = 2_000_000,
) -> SparsifierResult:
    """Dispatch to the named backend — the embedding pipelines' entry point.

    All backends flow through here, so this is where the numerical-health
    layer fingerprints the count matrix (stage ``"sparsifier"``) and checks
    the estimator's total-mass contract ``E[Σ W] = M`` — one hook covering
    every backend identically.  Both are no-ops unless a pipeline installed
    an active :class:`~repro.telemetry.health.HealthRecorder`.
    """
    result = get_sparsifier_backend(sparsifier).build(
        graph, config, seed, aggregator=aggregator, timer=timer,
        workers=workers, backend=backend, batch_size=batch_size,
    )
    health.checkpoint("sparsifier", result.counts)
    health.check_sparsifier_mass(result.counts, result.num_draws)
    return result
