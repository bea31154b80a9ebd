"""Cross-process telemetry: what a pool worker records rides home with each
task's result.

The tracer and metrics registry are process-global, so anything a
``ProcessPoolExecutor`` worker records would die with the worker.  When
tracing is on, :func:`repro.utils.parallel.parallel_imap` closes the gap over
the pool's own result pipe:

**Worker side** — :func:`init_worker`, chained in front of the caller's pool
initializer, installs a fresh tracer and resets the metrics registry (fork
children inherit the parent's; recording into them would replay parent state
back through the merge).  Tasks run as :func:`run_task`, which returns
``(result, report)``: the worker's finished root spans as nested dicts, its
registry snapshot since the previous report (the registry is then reset),
:func:`~repro.telemetry.memory.process_memory_snapshot` and the tracer's
clock anchors.

**Parent side** — a :class:`Collector` takes each report as its result is
yielded: the spans are grafted under the span that launched the pool, moved
onto the parent's timeline by :func:`clock_offset` and laned by worker pid,
and the snapshot merges into that span's registry (counters sum, gauges max,
histograms bucket-wise).  :meth:`Collector.finish`, at pool end, publishes
the ``worker.seconds.<span name>`` totals, the ``parallel.workers`` count and
the per-worker memory gauges.

The one loss: a worker that dies takes the spans of its in-flight task with
it, and results it finished that the parent had not yet yielded go down with
the pool (the run fails with :class:`~repro.errors.WorkerError` either way).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.telemetry import metrics as metrics_mod
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.memory import process_memory_snapshot
from repro.telemetry.tracer import Span, Tracer, _json_safe


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def init_worker(
    user_initializer: Optional[Callable[..., None]] = None,
    user_initargs: tuple = (),
) -> None:
    """Pool initializer: a fresh tracer and registry, then the caller's own
    initializer (so what it records is reported with the first task)."""
    metrics_mod.reset_metrics()
    tracer_mod.enable(Tracer())
    if user_initializer is not None:
        user_initializer(*user_initargs)


def run_task(func: Callable, args: tuple) -> tuple:
    """Task body of a traced process pool: ``(func(*args), report)``."""
    result = func(*args)
    tracer = tracer_mod.get_tracer()
    # Tasks run one at a time and every span they open is closed on return.
    with tracer._lock:
        finished, tracer.roots = tracer.roots, []
    registry = metrics_mod.get_metrics()
    snapshot = registry.snapshot()
    registry.reset()
    report = {
        "pid": os.getpid(),
        "clock": {"epoch_wall": tracer.epoch_wall, "epoch_perf": tracer.epoch_perf},
        "spans": [_span_record(span) for span in finished],
        "metrics": snapshot,
        "memory": process_memory_snapshot(),
    }
    return result, report


def _span_record(span: Span) -> dict:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "tid": span.thread_id,
        "thread_name": span.thread_name,
        "attrs": {k: _json_safe(v) for k, v in span.attributes.items()},
        "children": [_span_record(child) for child in span.children],
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


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


def graft_spans(
    tracer: Tracer,
    spans: List[dict],
    *,
    pid: int,
    offset: float,
    parent: Optional[Span] = None,
) -> List[Span]:
    """Add nested worker span records to ``tracer`` under ``parent``, shifted
    by ``offset`` seconds; returns the grafted roots."""
    grafted = []
    for record in spans:
        span = tracer.add_merged_span(
            record["name"],
            start=record["start"] + offset,
            end=record["end"] + offset,
            pid=pid,
            tid=record["tid"],
            thread_name=record["thread_name"],
            attributes=record["attrs"],
            parent=parent,
        )
        graft_spans(
            tracer, record["children"], pid=pid, offset=offset, parent=span
        )
        grafted.append(span)
    return grafted


class Collector:
    """Parent side of one traced process pool.

    Created when the pool starts, on the thread that starts it: worker roots
    nest under that thread's current span and worker metrics merge into the
    registry that span writes to (a pipeline run's, when one is active).
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.tracer = tracer_mod.get_tracer()
        self.parent = tracer_mod.current_span()
        self.registry = metrics_mod.current()
        self.seconds: Dict[str, float] = {}
        self.memory: Dict[int, dict] = {}

    def add(self, report: dict) -> None:
        """Merge one task's report (as its result is yielded)."""
        pid = int(report["pid"])
        if pid not in self.memory:
            self.tracer.set_process_label(pid, f"{self.label} worker (pid {pid})")
        roots = graft_spans(
            self.tracer,
            report["spans"],
            pid=pid,
            offset=clock_offset(report["clock"], self.tracer),
            parent=self.parent,
        )
        for root in roots:
            for span in root.walk():
                self.seconds[span.name] = (
                    self.seconds.get(span.name, 0.0) + span.duration
                )
        self.registry.merge_snapshot(report["metrics"])
        self.memory[pid] = report["memory"]

    def finish(self) -> None:
        """Publish the pool's per-worker totals (at pool end).

        ``worker.seconds.<name>`` sums the seconds of every worker span of
        that name (the run ledger's ``worker.*`` stage rows);
        ``parallel.workers`` counts the workers that reported; each worker's
        last memory reading becomes ``parallel.worker.<i>.<reading>`` gauges
        (workers indexed by sorted pid) plus a fleet-wide peak.
        """
        registry = self.registry
        if self.memory:
            registry.counter("parallel.workers").inc(len(self.memory))
        for name, seconds in sorted(self.seconds.items()):
            registry.counter(f"worker.seconds.{name}").inc(seconds)
        for index, pid in enumerate(sorted(self.memory)):
            for reading in ("rss_peak_bytes", "anon_bytes"):
                value = self.memory[pid].get(reading)
                if value is not None:
                    registry.gauge(f"parallel.worker.{index}.{reading}").set_max(
                        float(value)
                    )
                    registry.gauge(f"parallel.worker_{reading}").set_max(
                        float(value)
                    )
