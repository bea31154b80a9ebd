"""Shared result container and the pipeline skeleton every method runs on.

:func:`run_pipeline` owns the scaffolding that every embedding module used to
duplicate by hand: seed normalization (:func:`repro.utils.rng.ensure_rng`),
dimension validation, the run's root span (whose child spans are the Table-5
stages and whose metrics are the run's own — :mod:`repro.telemetry.run`),
and the standardized ``EmbeddingResult.info`` keys (``method`` / ``params``
/ ``n`` / ``m`` plus the telemetry snapshot).  A method contributes only its
stage body, wrapped in a :class:`PipelineSpec`; the public name -> builder
mapping lives in :mod:`repro.embedding.registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import numpy as np

from repro import telemetry
from repro.telemetry import environment, health, ledger
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
    timer:
        Stage-level wall-clock breakdown (Table 5 rows): a read-only
        :class:`~repro.telemetry.run.StageTable` over the run span's stage
        children.
    info:
        Diagnostics.  Always contains ``method``, ``params`` (the params
        dataclass as a plain dict), ``n``, ``m`` and ``telemetry_enabled``;
        methods add their own keys (sample counts, sparsifier nnz, ...).
    """

    vectors: np.ndarray
    method: str
    timer: telemetry.StageTable = field(default_factory=telemetry.StageTable)
    info: Dict[str, object] = field(default_factory=dict)

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


def score_edges(
    vectors: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Dot-product edge scores — the ranking function used by the evaluators."""
    return np.einsum("ij,ij->i", vectors[sources], vectors[targets])


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
    info:
        Method-specific diagnostics; merged into the standardized
        ``EmbeddingResult.info`` after the body returns.
    """

    graph: CSRGraph
    params: Any
    rng: np.random.Generator
    span: Any
    info: Dict[str, object] = field(default_factory=dict)


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
    ``dimension``; the result's ``timer`` is the view of its stage
    children), and the standardized ``info`` keys (``method``, ``params``,
    ``n``, ``m``, ``telemetry_enabled`` and — when telemetry is on — a
    ``telemetry`` snapshot of this run's metrics and span count).

    Numerical health: a fresh :class:`~repro.telemetry.health.HealthRecorder`
    is installed for the body (stage checkpoints, contract probes), the
    final embedding is fingerprinted as stage ``"final"``, and — regardless
    of the health policy — a fail-fast non-finite guard runs on the result
    (raising :class:`~repro.errors.NumericalHealthError` under policy
    ``raise``, warning otherwise; it is the one place the final embedding's
    non-finite entries are counted into ``health.nonfinite``).  With
    the policy on, ``info["health"]`` / ``info["digests"]`` carry the
    recorder summary into the ledger record.
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
        # The recorder is thread-local-active for the body so lower layers
        # (sparsifier dispatcher, factorize) hit their health hooks without
        # threading the context through every signature.
        with health.recorder_scope(recorder):
            vectors = spec.body(ctx)
            recorder.checkpoint("final", vectors)
        # Fail-fast non-finite guard on the final embedding: always runs
        # (one isfinite pass), independent of the digest/probe policy — a
        # NaN embedding must never flow silently into eval or the ledger.
        nonfinite = int(vectors.size - np.count_nonzero(np.isfinite(vectors)))
        if nonfinite:
            telemetry.counter("health.nonfinite").inc(nonfinite)
            message = (
                f"{spec.name}: final embedding contains {nonfinite} "
                f"non-finite entries (shape {vectors.shape})"
            )
            if recorder.policy == "raise":
                raise NumericalHealthError(message)
            logger.warning(message)

    params_dict = dataclasses.asdict(params)
    info: Dict[str, object] = {
        "method": spec.name,
        "params": params_dict,
        "n": graph.num_vertices,
        "m": graph.num_edges,
    }
    info.update(ctx.info)
    # Execution provenance, resolved even when telemetry is off: the ledger
    # needs the actual pool width/backend (not the ``workers=None`` sentinel)
    # to keep thread and process runs comparable.
    if "workers" in params_dict:
        from repro.utils.parallel import default_workers

        info["resolved_workers"] = int(params_dict["workers"] or default_workers())
    else:
        info["resolved_workers"] = 1
    info["resolved_backend"] = str(params_dict.get("backend") or "thread")
    info["env"] = environment.collect_fingerprint()
    if recorder.enabled:
        info["health"] = recorder.summary()
        info["digests"] = recorder.digest_map()
    info["telemetry_enabled"] = root.metrics is not None
    if root.metrics is not None:
        info["telemetry"] = {
            "metrics": root.metrics.snapshot(),
            "trace_spans": sum(1 for _ in root.walk()),
        }
    timer = telemetry.StageTable(root.children)
    logger.debug(
        "%s: done in %.3fs (%s)",
        spec.name,
        timer.total,
        ", ".join(f"{name}={secs:.3f}s" for name, secs in timer.as_rows()),
    )
    result = EmbeddingResult(vectors, spec.name, timer, info)
    # Opt-in run ledger (REPRO_LEDGER=1, CLI --ledger, or the benchmark
    # harness's enabled_scope): one persisted RunRecord per pipeline run.
    ledger.maybe_record(result, seed=seed, context="run_pipeline")
    return result
