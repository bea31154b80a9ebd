"""The run ledger: every pipeline run becomes one persisted ``RunRecord``.

A run's spans evaporate at process exit; its ledger line does not.  Each
run appends one JSON line — method, canonical params hash, dataset, seed,
environment fingerprint, what its root span (``result.run``) holds (the
Table-5 stage times, the run's counters, its health digests), peak RSS and
optional quality — to ``benchmarks/results/runs.jsonl`` via a crash-safe
atomic append (:func:`repro.utils.fileio.append_line`).
:mod:`repro.telemetry.report` renders trajectories from it and
:mod:`repro.telemetry.audit` diffs two runs' digests.  Timing verdicts are
not taken here: they come from the committed benchmark (``benchmarks/perf``).

Recording is **opt-in** and piggybacks on :func:`repro.embedding.base.run_pipeline`:

* ``REPRO_LEDGER=1`` in the environment, or
* :func:`enable` (what the CLI's ``--ledger`` flag calls), or
* :func:`enabled_scope` around a block (what ``benchmarks/harness.embed``
  uses so benchmark runs are *always* recorded).

Because graphs don't know their dataset name (``CSRGraph`` is slotted),
the dataset travels through a module-level context: loaders call
:func:`set_dataset` and the next recorded runs carry that name.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.environment import collect_fingerprint, fingerprint_key
from repro.telemetry.memory import peak_rss_bytes
from repro.utils.fileio import append_line
from repro.utils.log import get_logger

logger = get_logger(__name__)

SCHEMA_VERSION = 1

ENV_ENABLE = "REPRO_LEDGER"
ENV_PATH = "REPRO_LEDGER_PATH"
DEFAULT_PATH = os.path.join("benchmarks", "results", "runs.jsonl")

_TRUTHY = {"1", "true", "yes", "on"}

def params_hash(params: Mapping[str, object]) -> str:
    """Canonical short hash of a params dict (order-independent)."""
    payload = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRecord:
    """One persisted run: identity, environment, timings, metrics, quality."""

    method: str
    dataset: str
    params: Dict[str, object] = field(default_factory=dict)
    stages: Dict[str, float] = field(default_factory=dict)
    total_s: float = 0.0
    seed: Optional[int] = None
    env: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)
    # Numerical-health blocks (repro.telemetry.health): ``digests`` maps
    # stage name -> content-digest hex, ``health`` holds the full recorder
    # summary (policy, per-stage stats, probe results).  Both empty when the
    # run recorded with the health layer off; optional for old ledger lines.
    health: Dict[str, object] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    peak_rss_bytes: Optional[int] = None
    context: str = ""
    extra: Dict[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    timestamp: float = field(default_factory=time.time)
    params_hash: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.params_hash:
            self.params_hash = params_hash(self.params)
        if not self.fingerprint:
            self.fingerprint = fingerprint_key(self.env) if self.env else ""

    # -------------------------------------------------------------- identity
    @property
    def key(self) -> Tuple[str, str, str]:
        """Baseline-selection identity: method × dataset × params hash."""
        return (self.method, self.dataset, self.params_hash)

    @property
    def git_sha(self) -> Optional[str]:
        """Commit the run was taken at, when the fingerprint captured one."""
        sha = self.env.get("git_sha")
        return str(sha) if sha else None

    # ----------------------------------------------------------- (de)ser
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dict, field order fixed for readable lines."""
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "method": self.method,
            "dataset": self.dataset,
            "seed": self.seed,
            "params": self.params,
            "params_hash": self.params_hash,
            "env": self.env,
            "fingerprint": self.fingerprint,
            "stages": self.stages,
            "total_s": self.total_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "metrics": self.metrics,
            "quality": self.quality,
            "health": self.health,
            "digests": self.digests,
            "context": self.context,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        """The record as one JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=False, default=str)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        """Rebuild a record from a parsed ledger line (tolerant of extras).

        Stage seconds and counter values become floats here, so a line with
        a wrong-typed one raises and the reader skips it."""
        metrics = dict(data.get("metrics") or {})
        if "counters" in metrics:
            counters = dict(metrics["counters"])
            metrics["counters"] = {str(k): float(v) for k, v in counters.items()}
        return cls(
            method=str(data.get("method", "")),
            dataset=str(data.get("dataset", "")),
            params=dict(data.get("params") or {}),
            stages={
                str(k): float(v)
                for k, v in dict(data.get("stages") or {}).items()
            },
            total_s=float(data.get("total_s") or 0.0),
            seed=data.get("seed"),  # type: ignore[arg-type]
            env=dict(data.get("env") or {}),
            metrics=metrics,
            quality=dict(data.get("quality") or {}),
            health=dict(data.get("health") or {}),
            digests={
                str(k): str(v)
                for k, v in dict(data.get("digests") or {}).items()
            },
            peak_rss_bytes=data.get("peak_rss_bytes"),  # type: ignore[arg-type]
            context=str(data.get("context") or ""),
            extra=dict(data.get("extra") or {}),
            schema=int(data.get("schema") or SCHEMA_VERSION),
            run_id=str(data.get("run_id") or uuid.uuid4().hex[:12]),
            timestamp=float(data.get("timestamp") or 0.0),
            params_hash=str(data.get("params_hash") or ""),
            fingerprint=str(data.get("fingerprint") or ""),
        )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path: Union[str, "os.PathLike"] = DEFAULT_PATH) -> None:
        self.path = os.fspath(path)

    def append(self, record: RunRecord) -> RunRecord:
        """Persist ``record`` as one atomically appended line."""
        append_line(self.path, record.to_json())
        return record

    def records(
        self, method: Optional[str] = None, dataset: Optional[str] = None
    ) -> List[RunRecord]:
        """The parseable records in append (chronological) order, optionally
        only one method's and/or one dataset's (the readers' ``--method`` /
        ``--dataset`` filter); malformed lines — unparseable JSON or a
        wrong-typed field — are skipped and logged."""
        records: List[RunRecord] = []
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    is_record = isinstance(data, dict) and "method" in data
                    record = RunRecord.from_dict(data) if is_record else None
                except (TypeError, ValueError):  # JSONDecodeError is a ValueError
                    logger.warning(
                        "ledger %s: skipping malformed line %d", self.path, lineno
                    )
                    continue
                if record is None:
                    logger.warning(
                        "ledger %s: skipping non-record line %d", self.path, lineno
                    )
                    continue
                if (method is None or record.method == method) and (
                    dataset is None or record.dataset == dataset
                ):
                    records.append(record)
        return records


def find_run(records: Sequence[RunRecord], spec: str) -> RunRecord:
    """The run a reader's ``RUN`` argument names: ledger index or id prefix.

    An integer spec is a position in ``records``, 1-based from the start or
    negative from the end (the form CI scripts use: run ids are random,
    append order is scripted).  Anything else — and an integer that is not a
    valid position, so ids that happen to be all digits stay addressable —
    is a ``run_id`` prefix; of several matches the newest wins.
    """
    try:
        index: Optional[int] = int(spec)
    except ValueError:
        index = None
    if index:
        try:
            return records[index - 1 if index > 0 else index]
        except IndexError:
            pass
    matches = [r for r in records if spec and r.run_id.startswith(spec)]
    if matches:
        return matches[-1]
    if index is None:
        raise SystemExit(f"no run with id prefix {spec!r} in the ledger")
    if index == 0:
        raise SystemExit("run indices are 1-based (or negative from the end)")
    raise SystemExit(
        f"run index {index} out of range (ledger has {len(records)} runs)"
    )


# ---------------------------------------------------------------------------
# Process-level opt-in state: is recording on, where, and for which dataset.
# ---------------------------------------------------------------------------

_state_lock = threading.Lock()
_enabled = False
_path: Optional[str] = None
_dataset: Optional[str] = None


def enable(
    path: Optional[Union[str, "os.PathLike"]] = None,
    dataset: Optional[str] = None,
) -> None:
    """Turn on run recording for this process (what ``--ledger`` does)."""
    global _enabled, _path, _dataset
    with _state_lock:
        _enabled = True
        if path is not None:
            _path = os.fspath(path)
        if dataset is not None:
            _dataset = dataset


def disable() -> None:
    """Turn off run recording and clear the configured path."""
    global _enabled, _path
    with _state_lock:
        _enabled = False
        _path = None


def is_enabled() -> bool:
    """Whether runs are currently recorded (:func:`enable` or ``REPRO_LEDGER``)."""
    if _enabled:
        return True
    return os.environ.get(ENV_ENABLE, "").strip().lower() in _TRUTHY


def active_path() -> str:
    """The ledger file new records go to (flag > env > default)."""
    if _path is not None:
        return _path
    return os.environ.get(ENV_PATH) or DEFAULT_PATH


def set_dataset(name: Optional[str]) -> None:
    """Declare the dataset subsequent runs operate on (loader hook)."""
    global _dataset
    _dataset = name


def current_dataset() -> Optional[str]:
    """The dataset name the next record will carry (``None`` = unknown)."""
    return _dataset


@contextmanager
def enabled_scope(
    path: Optional[Union[str, "os.PathLike"]] = None,
    dataset: Optional[str] = None,
) -> Iterator[None]:
    """Temporarily force recording on (the benchmark harness's discipline)."""
    global _enabled, _path, _dataset
    with _state_lock:
        prev = (_enabled, _path, _dataset)
        _enabled = True
        if path is not None:
            _path = os.fspath(path)
        if dataset is not None:
            _dataset = dataset
    try:
        yield
    finally:
        with _state_lock:
            _enabled, _path, _dataset = prev


# ---------------------------------------------------------------------------
# Record construction from an EmbeddingResult.
# ---------------------------------------------------------------------------


def build_record(
    result,
    *,
    dataset: Optional[str] = None,
    seed: Optional[object] = None,
    quality: Optional[Mapping[str, float]] = None,
    context: str = "",
    extra: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Turn an :class:`~repro.embedding.base.EmbeddingResult` into a record.

    Everything measured is read off the run's root span (``result.run``):
    stage timings from its ``timer`` in the order the stages ran (every
    method opens its stages in its registry ``stages`` order, the Table-5
    columns), the run's counters, and its health
    recorder's summary and digests.  A hand-built result (``run=None``)
    records none of them.  ``peak_rss_bytes`` is the process's OS lifetime
    peak at record time.  The resolved worker count and backend are worked
    out from ``info["params"]`` into ``extra`` for *every* run.
    """
    from repro.utils.parallel import default_workers

    run = result.run
    params = dict(result.info.get("params") or {})
    resolved = dict(
        backend=str(params.get("backend") or "thread"),
        resolved_workers=int(params.get("workers", 1) or default_workers()),
    )
    record_extra = dict(extra or {})
    record_extra.update(
        (key, value) for key, value in resolved.items() if key not in record_extra
    )
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        seed = None
    counters = run.counters if run is not None else None
    metrics = {} if counters is None else {"counters": dict(sorted(counters.items()))}
    recorder = run.health if run is not None else None
    recorded = recorder is not None and recorder.enabled
    return RunRecord(
        method=result.method,
        dataset=dataset or current_dataset() or "unknown",
        params=params,
        stages=result.timer.stages,
        total_s=float(result.timer.total),
        seed=None if seed is None else int(seed),
        env=dict(collect_fingerprint()),
        metrics=metrics,
        quality=dict(quality or {}),
        health=recorder.summary() if recorded else {},
        digests=recorder.digest_map() if recorded else {},
        peak_rss_bytes=peak_rss_bytes(),
        context=context,
        extra=record_extra,
    )


def record_result(
    result,
    *,
    path: Optional[Union[str, "os.PathLike"]] = None,
    dataset: Optional[str] = None,
    seed: Optional[object] = None,
    quality: Optional[Mapping[str, float]] = None,
    context: str = "",
    extra: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Build a record from ``result`` and append it to the ledger."""
    record = build_record(
        result, dataset=dataset, seed=seed, quality=quality,
        context=context, extra=extra,
    )
    RunLedger(path if path is not None else active_path()).append(record)
    return record


def maybe_record(
    result,
    *,
    seed: Optional[object] = None,
    context: str = "",
) -> Optional[RunRecord]:
    """Record ``result`` iff the ledger is enabled; never raises.

    This is the :func:`run_pipeline` hook: a failed append (read-only
    filesystem, bad path) logs a warning instead of failing the embedding
    run that produced the result.
    """
    if not is_enabled():
        return None
    try:
        return record_result(result, seed=seed, context=context)
    except Exception as exc:
        logger.warning("run ledger append failed: %s", exc)
        return None
