"""Shared result container and the pipeline skeleton every method runs on.

:func:`run_pipeline` owns the scaffolding that every embedding module used to
duplicate by hand: seed normalization (:func:`repro.utils.rng.ensure_rng`),
dimension validation, the run's root span (whose child spans are the Table-5
stages and whose counters and health recorder are the run's own —
:mod:`repro.telemetry.run`), and the four standardized
``EmbeddingResult.info`` keys (``method`` / ``params`` / ``n`` / ``m``).  A
method contributes only its stage body, wrapped in a :class:`PipelineSpec`;
the public name -> builder mapping lives in :mod:`repro.embedding.registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro import telemetry
from repro.telemetry import health, ledger
from repro.errors import FactorizationError, NumericalHealthError
from repro.graph.csr import CSRGraph
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike, ensure_rng

logger = get_logger(__name__)


@dataclass
class EmbeddingResult:
    """An embedding plus provenance.

    Attributes
    ----------
    vectors:
        Dense ``(n, d)`` embedding matrix ``X`` (row ``u`` embeds vertex
        ``u``).
    method:
        Canonical method name (``"lightne"``, ``"netsmf"``, ...), matching
        the registry entry that produced it.
    run:
        The run's finished root span (``None`` for a hand-built result): its
        stage children carry the Table-5 times and the sparsifier's figures,
        ``run.counters`` the run's counters (``None`` with telemetry off) and
        ``run.health`` its :class:`~repro.telemetry.health.HealthRecorder`.
    info:
        Exactly ``method``, ``params`` (the params dataclass as a plain
        dict), ``n`` and ``m``.
    """

    vectors: np.ndarray
    method: str
    run: Optional[telemetry.Span] = None
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def timer(self) -> telemetry.StageTable:
        """Stage-level wall-clock breakdown (Table 5 rows): the read-only
        :class:`~repro.telemetry.run.StageTable` over the run's stages."""
        return telemetry.StageTable(self.run.children if self.run else ())

    @property
    def num_vertices(self) -> int:
        """Number of embedded vertices."""
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        """Embedding dimension ``d``."""
        return self.vectors.shape[1]

    @property
    def total_seconds(self) -> float:
        """Total recorded wall-clock time."""
        return self.timer.total

    def normalized(self) -> np.ndarray:
        """Row-L2-normalized copy of the vectors (cosine-similarity ready)."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return self.vectors / norms


def validate_dimension(num_vertices: int, dimension: int) -> None:
    """Shared sanity check for the requested embedding dimension."""
    if dimension < 1:
        raise FactorizationError(f"dimension must be >= 1, got {dimension}")
    if dimension > num_vertices:
        raise FactorizationError(
            f"dimension {dimension} exceeds vertex count {num_vertices}"
        )


@dataclass
class PipelineContext:
    """Everything a stage body receives from :func:`run_pipeline`.

    Attributes
    ----------
    graph:
        The input graph.
    params:
        The method's frozen params dataclass.
    rng:
        The normalized :class:`numpy.random.Generator` for the whole run.
    span:
        The run's root span (real whether or not tracing is on); bodies may
        attach attributes, and open their Table-5 stages under it with
        :func:`repro.telemetry.stage`.
    """

    graph: CSRGraph
    params: Any
    rng: np.random.Generator
    span: Any


@dataclass(frozen=True)
class PipelineSpec:
    """A method's identity inside the pipeline skeleton.

    ``body`` receives a :class:`PipelineContext` and returns the ``(n, d)``
    vector matrix; everything around it (seeding, validation, telemetry,
    timing, result assembly) is owned by :func:`run_pipeline`.
    """

    name: str
    body: Callable[[PipelineContext], np.ndarray]


def run_pipeline(
    graph: CSRGraph,
    spec: PipelineSpec,
    params: Any,
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Run ``spec.body`` under the shared method scaffolding.

    Owns, for every method: ``validate_dimension``, ``ensure_rng(seed)``,
    the run's root span (named ``spec.name``, carrying ``n`` / ``m`` /
    ``dimension``; it is the result's ``run``), and the standardized
    ``info`` keys (``method``, ``params``, ``n``, ``m``).

    Numerical health: a fresh :class:`~repro.telemetry.health.HealthRecorder`
    is the root span's ``health`` (stage checkpoints, contract probes), the
    final embedding is fingerprinted as stage ``"final"``, and — regardless
    of the health policy — a fail-fast non-finite guard runs on the result
    (raising :class:`~repro.errors.NumericalHealthError` under policy
    ``raise``, warning otherwise; it is the one place the final embedding's
    non-finite entries are counted into ``health.nonfinite``).  The ledger
    record reads the recorder off ``result.run.health``.
    """
    validate_dimension(graph.num_vertices, params.dimension)
    rng = ensure_rng(seed)
    recorder = health.HealthRecorder()
    with telemetry.run_scope(
        spec.name,
        n=graph.num_vertices,
        m=graph.num_edges,
        dimension=params.dimension,
    ) as root:
        ctx = PipelineContext(graph=graph, params=params, rng=rng, span=root)
        # Lower layers (sparsifier dispatcher, factorize) reach the recorder
        # through the active run's root, without threading the context
        # through every signature.
        root.health = recorder
        vectors = spec.body(ctx)
        recorder.checkpoint("final", vectors)
        # Fail-fast non-finite guard on the final embedding: always runs
        # (one isfinite pass), independent of the digest/probe policy — a
        # NaN embedding must never flow silently into eval or the ledger.
        nonfinite = int(vectors.size - np.count_nonzero(np.isfinite(vectors)))
        if nonfinite:
            telemetry.count("health.nonfinite", nonfinite)
            message = (
                f"{spec.name}: final embedding contains {nonfinite} "
                f"non-finite entries (shape {vectors.shape})"
            )
            if recorder.policy == "raise":
                raise NumericalHealthError(message)
            logger.warning(message)

    info: Dict[str, object] = {
        "method": spec.name,
        "params": dataclasses.asdict(params),
        "n": graph.num_vertices,
        "m": graph.num_edges,
    }
    timer = telemetry.StageTable(root.children)
    logger.debug(
        "%s: done in %.3fs (%s)",
        spec.name,
        timer.total,
        ", ".join(f"{name}={secs:.3f}s" for name, secs in timer.as_rows()),
    )
    result = EmbeddingResult(vectors, spec.name, root, info)
    # Opt-in run ledger (REPRO_LEDGER=1, CLI --ledger, or the benchmark
    # harness's enabled_scope): one persisted RunRecord per pipeline run.
    ledger.maybe_record(result, seed=seed, context="run_pipeline")
    return result
