"""Cross-process telemetry: worker shims, spool merging, heartbeats, stalls.

The tracer/metrics/memory modules are process-global, so anything a
``ProcessPoolExecutor`` worker records would normally die with the worker.
This module closes that gap with a file-based spool protocol:

**Worker side** — :func:`init_worker` (installed by
:func:`repro.utils.parallel.parallel_map` as the pool initializer, chained
in front of the caller's own) builds a :class:`WorkerShim`: a fresh tracer
plus a reset metrics registry (fork children inherit the parent's — reusing
them would double-count), a JSONL spool file the tracer streams every
finished span into, and a daemon heartbeat thread.  After each task the
shim appends cumulative metrics/memory snapshot lines and rewrites its
heartbeat file.  Spans are streamed *as they finish* and snapshots flushed
*per task* precisely because pool workers exit via ``os._exit`` without
running ``atexit`` hooks — a worker that dies mid-task leaves behind a
valid spool covering everything it completed.

**Parent side** — :class:`SpoolCollector` owns the spool directory for one
pool's lifetime, runs a :class:`StallMonitor` thread over the heartbeat
files (no beat for longer than the timeout ⇒ warning log +
``parallel.stalled_workers`` metric + a ``--progress`` annotation), and at
pool shutdown merges every spool into the parent tracer/registry:
timestamps are shifted by a wall-clock-anchored monotonic offset
(:func:`clock_offset`), span trees rebuilt tolerant of missing parents,
counters summed, gauge peaks maxed, histograms merged bucket-wise, and
per-worker peak memory published as ``parallel.worker.*`` gauges.

Every line in a spool is self-describing JSON; truncated or garbage lines
(killed workers) are skipped, never fatal.

Workers beat every :data:`HEARTBEAT_S` seconds and count as stalled after
:data:`STALL_TIMEOUT_S` of silence; :class:`SpoolCollector` takes explicit
values for either.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry import metrics as metrics_mod
from repro.telemetry import progress as progress_mod
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.tracer import Span, Tracer, _json_safe
from repro.utils.log import get_logger

logger = get_logger(__name__)

SPOOL_PREFIX = "spool-"
SPOOL_SUFFIX = ".jsonl"
BEAT_PREFIX = "beat-"
BEAT_SUFFIX = ".json"

HEARTBEAT_S = 0.25
STALL_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerShim:
    """Per-worker telemetry state: spool file, fresh tracer, heartbeats.

    Constructed once per worker process by :func:`init_worker`.  All spool
    writes are line-buffered JSON behind one lock and flushed immediately,
    so the parent can read a consistent prefix at any moment — including
    after the worker is killed.
    """

    def __init__(
        self,
        spool_dir: str,
        label: str,
        tracing: bool,
        heartbeat_s: float,
    ) -> None:
        self.pid = os.getpid()
        self.label = label
        self.tracing = bool(tracing)
        self.heartbeat_s = float(heartbeat_s)
        self.spool_path = os.path.join(
            spool_dir, f"{SPOOL_PREFIX}{self.pid}{SPOOL_SUFFIX}"
        )
        self.beat_path = os.path.join(
            spool_dir, f"{BEAT_PREFIX}{self.pid}{BEAT_SUFFIX}"
        )
        self._lock = threading.Lock()
        self._items = 0
        self._file = open(self.spool_path, "a", encoding="utf-8")
        self.tracer: Optional[Tracer] = None
        if self.tracing:
            # A fork child inherits the parent's tracer and registry;
            # recording into them would replay parent state back through
            # the merge.  Install fresh ones scoped to this worker.
            metrics_mod.reset_metrics()
            self.tracer = tracer_mod.enable(Tracer())
            self.tracer.add_listener(self._write_span)
        epoch_wall, epoch_perf = (
            (self.tracer.epoch_wall, self.tracer.epoch_perf)
            if self.tracer is not None
            else (time.time(), time.perf_counter())
        )
        self._write(
            {
                "type": "clock",
                "pid": self.pid,
                "label": label,
                "epoch_wall": epoch_wall,
                "epoch_perf": epoch_perf,
            }
        )
        self.write_beat()
        self._stop = threading.Event()
        self._beat_thread = threading.Thread(
            target=self._beat_loop, name="repro-heartbeat", daemon=True
        )
        self._beat_thread.start()

    # ------------------------------------------------------------- spooling
    def _write(self, payload: dict) -> None:
        try:
            line = json.dumps(payload)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return
        with self._lock:
            try:
                self._file.write(line + "\n")
                self._file.flush()
            except (OSError, ValueError):  # pragma: no cover - disk issues
                pass

    def _write_span(self, span: Span) -> None:
        self._write(
            {
                "type": "span",
                "id": span.span_id,
                "parent_id": None if span.parent is None else span.parent.span_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "tid": span.thread_id,
                "thread_name": span.thread_name,
                "attrs": {k: _json_safe(v) for k, v in span.attributes.items()},
            }
        )

    # ----------------------------------------------------------- heartbeats
    def write_beat(self) -> None:
        """Atomically publish liveness + items-completed for the parent."""
        payload = {
            "pid": self.pid,
            "label": self.label,
            "wall": time.time(),
            "items": self._items,
        }
        tmp = f"{self.beat_path}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.beat_path)
        except OSError:  # pragma: no cover - spool dir vanished
            pass

    def _beat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            self.write_beat()

    # ---------------------------------------------------------------- tasks
    def task_done(self) -> None:
        """Account one completed task: snapshot metrics/memory, beat."""
        with self._lock:
            self._items += 1
        if self.tracing:
            self._write(
                {
                    "type": "metrics",
                    "pid": self.pid,
                    "snapshot": metrics_mod.get_metrics().snapshot(),
                }
            )
            from repro.telemetry.memory import process_memory_snapshot

            self._write(
                {"type": "memory", "pid": self.pid, **process_memory_snapshot()}
            )
        self.write_beat()


_worker_shim: Optional[WorkerShim] = None


def init_worker(
    config: dict,
    user_initializer: Optional[Callable[..., None]] = None,
    user_initargs: tuple = (),
) -> None:
    """Pool initializer: install the telemetry shim, then the caller's own.

    Must be a module-level function (it is pickled into the workers).  The
    shim is installed exactly once per worker process; the user initializer
    runs after it so any spans/metrics it records are already captured.
    """
    global _worker_shim
    if _worker_shim is None:
        _worker_shim = WorkerShim(**config)
    if user_initializer is not None:
        user_initializer(*user_initargs)


def run_task(func: Callable, args: tuple):
    """Task wrapper submitted by :func:`parallel_map`: run, then account."""
    result = func(*args)
    shim = _worker_shim
    if shim is not None:
        shim.task_done()
    return result


# ---------------------------------------------------------------------------
# Parent side: heartbeat monitoring
# ---------------------------------------------------------------------------


def read_beats(spool_dir: str) -> Dict[int, dict]:
    """Parse every heartbeat file in ``spool_dir`` (unreadable ones skipped)."""
    beats: Dict[int, dict] = {}
    try:
        names = os.listdir(spool_dir)
    except OSError:
        return beats
    for name in names:
        if not (name.startswith(BEAT_PREFIX) and name.endswith(BEAT_SUFFIX)):
            continue
        try:
            with open(os.path.join(spool_dir, name), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            beats[int(payload["pid"])] = payload
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return beats


class StallMonitor:
    """Watches heartbeat files; reports workers silent past the timeout.

    A stall is a *condition*, not an event stream: each worker is warned
    about once per continuous silence (and noted again on recovery), the
    ``parallel.stalled_workers`` counter counts distinct stall incidents
    and the ``parallel.stalled_workers_current`` gauge tracks how many
    workers look stalled right now.  Heartbeats carry wall-clock stamps, so
    comparisons work across processes without monotonic-offset bookkeeping.
    """

    def __init__(
        self,
        spool_dir: str,
        *,
        label: str,
        timeout_s: float,
        poll_s: Optional[float] = None,
        total_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        self.spool_dir = spool_dir
        self.label = label
        self.timeout_s = float(timeout_s)
        self.poll_s = (
            float(poll_s)
            if poll_s is not None
            else max(0.05, min(self.timeout_s / 4.0, 1.0))
        )
        self.total_tasks = total_tasks
        self.progress = bool(progress)
        self.stalled_pids: set = set()
        self.stall_events = 0
        self._last_beats: Dict[int, dict] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Launch the daemon polling thread (idempotent)."""
        if self._thread is not None:
            return
        # Stall metrics belong to whatever launched the pool (its run).
        self._thread = threading.Thread(
            target=self._run, args=(tracer_mod.current_span(),),
            name="repro-stall-monitor", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop polling (final state stays readable on the instance)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self, parent: Optional[Span]) -> None:
        with tracer_mod.adopt(parent):
            while not self._stop.wait(self.poll_s):
                try:
                    self.poll_once()
                except Exception:  # pragma: no cover - must not kill runs
                    logger.exception("stall monitor poll failed")

    def poll_once(self, now: Optional[float] = None) -> set:
        """One scan over the beat files; returns the currently-stalled pids."""
        now = time.time() if now is None else now
        self._last_beats.update(read_beats(self.spool_dir))
        stalled = {
            pid
            for pid, beat in self._last_beats.items()
            if now - float(beat.get("wall", now)) > self.timeout_s
        }
        for pid in sorted(stalled - self.stalled_pids):
            self.stall_events += 1
            age = now - float(self._last_beats[pid].get("wall", now))
            logger.warning(
                "%s: worker pid=%d sent no heartbeat for %.1fs "
                "(stall timeout %.1fs)",
                self.label,
                pid,
                age,
                self.timeout_s,
            )
            metrics_mod.counter("parallel.stalled_workers").inc()
        for pid in sorted(self.stalled_pids - stalled):
            logger.warning("%s: worker pid=%d resumed heartbeats", self.label, pid)
        if stalled != self.stalled_pids:
            metrics_mod.gauge("parallel.stalled_workers_current").set(len(stalled))
        self.stalled_pids = stalled
        if self.progress and self._last_beats:
            progress_mod.update(
                self.label,
                done=sum(int(b.get("items", 0)) for b in self._last_beats.values()),
                total=self.total_tasks,
                workers=len(self._last_beats),
                stalled=len(stalled),
            )
        return stalled


# ---------------------------------------------------------------------------
# Parent side: spool reading and merging
# ---------------------------------------------------------------------------


def read_spool(path: str) -> dict:
    """Parse one worker spool, tolerating a truncated or corrupt tail.

    Returns ``{"clock", "spans", "metrics", "memory", "corrupt_lines"}``
    where ``metrics``/``memory`` are the *last* snapshot lines (snapshots
    are cumulative, so the last one subsumes the rest) and ``spans`` is
    every complete span line in stream order.
    """
    clock: Optional[dict] = None
    spans: List[dict] = []
    metrics: Optional[dict] = None
    memory: Optional[dict] = None
    corrupt = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return {
            "clock": None, "spans": [], "metrics": None,
            "memory": None, "corrupt_lines": 1,
        }
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if not isinstance(payload, dict):
                corrupt += 1
                continue
            kind = payload.get("type")
            if kind == "clock":
                clock = payload
            elif kind == "span":
                spans.append(payload)
            elif kind == "metrics":
                metrics = payload
            elif kind == "memory":
                memory = payload
    return {
        "clock": clock,
        "spans": spans,
        "metrics": metrics,
        "memory": memory,
        "corrupt_lines": corrupt,
    }


def clock_offset(clock: dict, tracer: Tracer) -> float:
    """Seconds to add to a worker timestamp to land on ``tracer``'s timeline.

    ``perf_counter`` origins are arbitrary per process; each side pairs a
    wall-clock anchor with its monotonic origin, and the difference of the
    two (wall − perf) anchors is exactly the shift between the monotonic
    timelines.  Wall-clock sampling jitter (microseconds) is the residual
    error — invisible at span granularity.
    """
    return (float(clock["epoch_wall"]) - float(clock["epoch_perf"])) - (
        tracer.epoch_wall - tracer.epoch_perf
    )


def merge_worker_spans(
    tracer: Tracer,
    spans: List[dict],
    *,
    pid: int,
    offset: float,
    parent: Optional[Span] = None,
) -> int:
    """Graft worker span records into ``tracer``'s tree; returns the count.

    Tolerant by construction: events may arrive out of order (children are
    re-sorted by start time), reference a parent that never hit the spool
    (the orphan becomes a root), or be half-written (skipped).  Worker root
    spans are attached under ``parent`` — the span that was current when
    the pool was created — so the merged tree nests the way the code did.
    """
    nodes: Dict[int, dict] = {}
    for event in spans:
        span_id = event.get("id")
        if span_id is None or event.get("start") is None or event.get("end") is None:
            continue
        nodes[int(span_id)] = event
    children: Dict[int, List[dict]] = {}
    roots: List[dict] = []
    for event in nodes.values():
        parent_id = event.get("parent_id")
        if parent_id is not None and int(parent_id) in nodes:
            children.setdefault(int(parent_id), []).append(event)
        else:
            roots.append(event)
    count = 0

    def graft(event: dict, parent_span: Optional[Span]) -> None:
        nonlocal count
        span = tracer.add_merged_span(
            str(event.get("name", "?")),
            start=float(event["start"]) + offset,
            end=float(event["end"]) + offset,
            pid=pid,
            tid=int(event.get("tid") or 0),
            thread_name=str(event.get("thread_name") or ""),
            attributes=dict(event.get("attrs") or {}),
            parent=parent_span,
        )
        count += 1
        for child in sorted(
            children.get(int(event["id"]), []), key=lambda e: float(e["start"])
        ):
            graft(child, span)

    for root in sorted(roots, key=lambda e: float(e["start"])):
        graft(root, parent)
    return count


def merge_spools(
    spool_dir: str,
    *,
    tracer: Optional[Tracer] = None,
    registry: Optional[metrics_mod.MetricsRegistry] = None,
    label: str = "parallel",
    parent: Optional[Span] = None,
) -> dict:
    """Merge every worker spool under ``spool_dir`` into the parent state.

    Per worker: spans are clock-corrected and grafted into ``tracer``
    (lane-labeled by pid), the final metrics snapshot is folded into
    ``registry`` (counters sum, gauge peaks max, histograms merge), and the
    final memory snapshot becomes ``parallel.worker.<i>.{rss_peak,anon}_bytes``
    gauges (workers indexed by sorted pid) plus fleet-wide
    ``parallel.worker_rss_peak_bytes`` / ``parallel.worker_anon_bytes``
    peaks.  Per-span-name seconds are accumulated into
    ``worker.seconds.<name>`` counters — the merged worker stage-seconds
    the run ledger picks up.  Returns a summary dict.
    """
    summary: dict = {
        "workers": [],
        "spans": 0,
        "span_seconds": {},
        "corrupt_lines": 0,
        "worker_memory": {},
    }
    try:
        names = sorted(os.listdir(spool_dir))
    except OSError:
        return summary
    for name in names:
        if not (name.startswith(SPOOL_PREFIX) and name.endswith(SPOOL_SUFFIX)):
            continue
        data = read_spool(os.path.join(spool_dir, name))
        summary["corrupt_lines"] += data["corrupt_lines"]
        clock = data["clock"]
        if clock is not None:
            pid = int(clock.get("pid") or 0)
        else:
            try:
                pid = int(name[len(SPOOL_PREFIX):-len(SPOOL_SUFFIX)])
            except ValueError:
                pid = 0
        summary["workers"].append(pid)
        if tracer is not None and data["spans"]:
            if clock is None:
                logger.warning(
                    "%s: spool for pid=%d has spans but no clock line; "
                    "skipping its spans", label, pid,
                )
            else:
                tracer.set_process_label(pid, f"{label} worker (pid {pid})")
                summary["spans"] += merge_worker_spans(
                    tracer,
                    data["spans"],
                    pid=pid,
                    offset=clock_offset(clock, tracer),
                    parent=parent,
                )
        for event in data["spans"]:
            if event.get("start") is None or event.get("end") is None:
                continue
            span_name = str(event.get("name", "?"))
            seconds = max(0.0, float(event["end"]) - float(event["start"]))
            summary["span_seconds"][span_name] = (
                summary["span_seconds"].get(span_name, 0.0) + seconds
            )
        if registry is not None and data["metrics"] is not None:
            snapshot = data["metrics"].get("snapshot")
            if isinstance(snapshot, dict):
                registry.merge_snapshot(snapshot)
        if data["memory"] is not None:
            summary["worker_memory"][pid] = data["memory"]
    if registry is not None:
        if summary["workers"]:
            registry.counter("parallel.worker_spools").inc(len(summary["workers"]))
        for span_name, seconds in sorted(summary["span_seconds"].items()):
            registry.counter(f"worker.seconds.{span_name}").inc(seconds)
        for index, pid in enumerate(sorted(summary["worker_memory"])):
            mem = summary["worker_memory"][pid]
            rss_peak = mem.get("rss_peak_bytes")
            anon = mem.get("anon_bytes")
            if rss_peak is not None:
                registry.gauge(f"parallel.worker.{index}.rss_peak_bytes").set_max(
                    float(rss_peak)
                )
                registry.gauge("parallel.worker_rss_peak_bytes").set_max(
                    float(rss_peak)
                )
            if anon is not None:
                registry.gauge(f"parallel.worker.{index}.anon_bytes").set_max(
                    float(anon)
                )
                registry.gauge("parallel.worker_anon_bytes").set_max(float(anon))
    return summary


# ---------------------------------------------------------------------------
# Parent side: per-pool lifecycle
# ---------------------------------------------------------------------------


class SpoolCollector:
    """Owns one pool's spool directory, stall monitor and final merge.

    Created by :func:`maybe_collector` when a process-backend
    ``parallel_map`` runs with telemetry or progress enabled.  Lifecycle:
    :meth:`initializer` wraps the caller's pool initializer, the pool runs
    tasks through :func:`run_task`, then :meth:`finish` (in a ``finally``)
    stops the monitor, merges the spools and removes the directory.
    """

    def __init__(
        self,
        label: str,
        total_tasks: int,
        *,
        tracing: bool,
        progress: bool,
        heartbeat_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.label = label or "parallel"
        self.total_tasks = int(total_tasks)
        self.tracing = bool(tracing)
        self.heartbeat_s = float(
            heartbeat_s if heartbeat_s is not None else HEARTBEAT_S
        )
        self.spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        # Worker roots nest under the span that launched the pool, and
        # worker metrics merge into the registry that span writes to.
        self.parent_span = tracer_mod.current_span() if self.tracing else None
        self.registry = metrics_mod.current() if self.tracing else None
        self.monitor = StallMonitor(
            self.spool_dir,
            label=self.label,
            timeout_s=float(
                timeout_s if timeout_s is not None else STALL_TIMEOUT_S
            ),
            total_tasks=self.total_tasks,
            progress=progress,
        )
        self.summary: dict = {}
        self._finished = False

    def initializer(
        self,
        user_initializer: Optional[Callable[..., None]],
        user_initargs: tuple,
    ) -> Tuple[Callable[..., None], tuple]:
        """The ``(initializer, initargs)`` pair to hand the executor."""
        config = {
            "spool_dir": self.spool_dir,
            "label": self.label,
            "tracing": self.tracing,
            "heartbeat_s": self.heartbeat_s,
        }
        return init_worker, (config, user_initializer, tuple(user_initargs))

    def start(self) -> None:
        """Begin heartbeat monitoring."""
        self.monitor.start()

    def finish(self) -> dict:
        """Stop monitoring, merge all spools, clean up (idempotent)."""
        if self._finished:
            return self.summary
        self._finished = True
        self.monitor.stop()
        try:
            tracer = tracer_mod.get_tracer() if self.tracing else None
            self.summary = merge_spools(
                self.spool_dir,
                tracer=tracer,
                registry=self.registry,
                label=self.label,
                parent=self.parent_span,
            )
            if self.summary.get("corrupt_lines"):
                logger.warning(
                    "%s: skipped %d corrupt spool lines (worker died mid-write?)",
                    self.label,
                    self.summary["corrupt_lines"],
                )
        finally:
            shutil.rmtree(self.spool_dir, ignore_errors=True)
        return self.summary


def maybe_collector(label: Optional[str], total_tasks: int) -> Optional[SpoolCollector]:
    """A :class:`SpoolCollector` when telemetry or progress wants one, else ``None``.

    The gate keeping cross-process telemetry zero-cost by default: with
    tracing off and no ``--progress``, process pools run exactly as before
    (no spool dir, no wrapper, no monitor thread).
    """
    tracing = tracer_mod.is_enabled()
    progress = progress_mod.is_enabled()
    if not tracing and not progress:
        return None
    return SpoolCollector(
        label or "parallel", total_tasks, tracing=tracing, progress=progress
    )
