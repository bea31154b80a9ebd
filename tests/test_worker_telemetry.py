"""Cross-process telemetry: task reports, clock correction, merging.

Covers the worker-side report / parent-side merge of
``repro.telemetry.worker`` plus its integration points: the multi-pid
Chrome trace, metric aggregation semantics, dead workers, progress, and the
run-ledger plumbing for merged worker stage-seconds.
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import WorkerError
from repro.telemetry import progress as progress_mod
from repro.telemetry import worker as worker_mod
from repro.telemetry.ledger import build_record
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.report import flame_boxes
from repro.utils.parallel import parallel_imap, parallel_map
from tests.test_out_of_core import _die_once, _leftovers


@pytest.fixture
def enabled():
    """Telemetry on for the test, reset and off afterwards."""
    tracer = telemetry.enable()
    telemetry.reset_metrics()
    yield tracer
    telemetry.reset_metrics()
    telemetry.disable()


# ---------------------------------------------------------------------------
# Metric aggregation semantics
# ---------------------------------------------------------------------------


class TestHistogramMerge:
    def test_bucketwise_addition(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b.snapshot())
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.sum == pytest.approx(7.0)
        snap = a.snapshot()
        assert snap["min"] == pytest.approx(0.5)
        assert snap["max"] == pytest.approx(5.0)

    def test_bound_mismatch_raises(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(b.snapshot())

    def test_count_length_mismatch_raises(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        bad = a.snapshot()
        bad["counts"] = [0, 0]
        with pytest.raises(ValueError, match="bucket counts"):
            a.merge(bad)


class TestRegistryMergeSnapshot:
    def test_counters_sum_gauges_max_histograms_merge(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(2.0)
        parent.gauge("g").set(10.0)
        parent.histogram("h", buckets=(1.0,)).observe(0.5)

        child = MetricsRegistry()
        child.counter("c").inc(3.0)
        child.counter("only_child").inc(1.0)
        child.gauge("g").set(4.0)
        child.gauge("g").set_max(25.0)
        child.histogram("h", buckets=(1.0,)).observe(9.0)

        parent.merge_snapshot(child.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == pytest.approx(5.0)
        assert snap["counters"]["only_child"] == pytest.approx(1.0)
        # Gauge merge takes the child's *max* (peak semantics), not its
        # last value.
        assert snap["gauges"]["g"]["value"] == pytest.approx(25.0)
        assert snap["histograms"]["h"]["count"] == 2

    def test_malformed_instrument_skipped_not_fatal(self):
        parent = MetricsRegistry()
        parent.counter("ok").inc()
        parent.merge_snapshot(
            {
                "counters": {"bad": "not-a-number", "fine": 2},
                "gauges": {"g": "nope"},
                "histograms": {"h": {"buckets": [1.0], "counts": [1]}},
            }
        )
        snap = parent.snapshot()
        assert snap["counters"]["fine"] == pytest.approx(2.0)
        assert "bad" not in snap["counters"]


# ---------------------------------------------------------------------------
# Clock correction and the report round trip
# ---------------------------------------------------------------------------


class TestClockAndMerge:
    def test_clock_offset_moves_worker_onto_parent_timeline(self, enabled):
        # Worker whose perf_counter origin is 100s behind the parent's:
        # both anchors name the same wall instant, so the offset must be
        # exactly the difference of the (wall - perf) anchors.
        clock = {
            "epoch_wall": enabled.epoch_wall,
            "epoch_perf": enabled.epoch_perf - 100.0,
        }
        assert worker_mod.clock_offset(clock, enabled) == pytest.approx(100.0)


def _record(name, start, end, children=(), tid=2, **attrs):
    return {
        "name": name, "start": start, "end": end, "tid": tid,
        "thread_name": f"t{tid}", "attrs": attrs, "children": list(children),
    }


def _report(tracer, pid, spans=(), metrics=None, memory=None):
    """A report from worker ``pid``, whose clock runs 100 s behind
    ``tracer``'s."""
    return {
        "pid": pid,
        "clock": {
            "epoch_wall": tracer.epoch_wall,
            "epoch_perf": tracer.epoch_perf - 100.0,
        },
        "spans": list(spans),
        "metrics": metrics or MetricsRegistry().snapshot(),
        "memory": memory or {},
    }


class TestReportRoundTrip:
    def test_worker_task_report_round_trips(self, enabled):
        # Worker side, in this process: a fresh tracer and registry, one task.
        worker_mod.init_worker()
        result, report = worker_mod.run_task(_square_with_span, (3,))
        assert result == 9
        assert telemetry.get_tracer().roots == []  # reported, then dropped
        assert telemetry.get_metrics().snapshot()["counters"] == {}
        report = pickle.loads(pickle.dumps(report))
        # Parent side, on a tracer of its own.
        parent = telemetry.enable()
        telemetry.reset_metrics()
        with telemetry.span("launch") as launch:
            collector = worker_mod.Collector("pool.test")
        collector.add(report)
        collector.finish()
        (task,) = parent.find_spans("task.square")
        assert task.parent is launch and task.attributes == {"x": 3}
        counters = telemetry.get_metrics().snapshot()["counters"]
        assert counters["task.calls"] == 1.0
        assert counters["parallel.workers"] == 1.0
        assert counters["worker.seconds.task.square"] == pytest.approx(
            task.duration
        )

    def test_nested_spans_graft_with_the_clock_offset(self, enabled):
        with enabled.span("launch") as launch:
            collector = worker_mod.Collector("pool.test")
        report = _report(enabled, 4242, spans=[
            _record("root", 1.0, 9.0, children=[
                _record("early-child", 2.0, 3.0, batch=1),
                _record("late-child", 5.0, 6.0, children=[
                    _record("leaf", 5.5, 5.75),
                ]),
            ]),
        ])
        collector.add(report)
        (root,) = launch.children
        assert (root.name, root.pid) == ("root", 4242)
        assert (root.start, root.end) == (pytest.approx(101.0), pytest.approx(109.0))
        assert [c.name for c in root.children] == ["early-child", "late-child"]
        assert root.children[0].attributes == {"batch": 1}
        (leaf,) = root.children[1].children
        assert leaf.start == pytest.approx(105.5)
        assert enabled.process_labels[4242] == "pool.test worker (pid 4242)"
        collector.finish()
        counters = telemetry.get_metrics().snapshot()["counters"]
        assert counters["worker.seconds.root"] == pytest.approx(8.0)
        assert counters["worker.seconds.leaf"] == pytest.approx(0.25)

    def test_snapshots_merge_sum_max_bucketwise(self, enabled):
        collector = worker_mod.Collector("pool.test")
        for pid, (calls, peak, seconds) in enumerate(
            [(2.0, 10.0, 0.5), (3.0, 25.0, 9.0), (1.0, 4.0, 0.5)]
        ):
            registry = MetricsRegistry()
            registry.counter("task.calls").inc(calls)
            registry.gauge("table.peak").set(peak)
            registry.histogram("task.seconds", buckets=(1.0,)).observe(seconds)
            collector.add(_report(enabled, pid, metrics=registry.snapshot()))
        snap = telemetry.get_metrics().snapshot()
        assert snap["counters"]["task.calls"] == pytest.approx(6.0)
        assert snap["gauges"]["table.peak"]["value"] == pytest.approx(25.0)
        assert snap["histograms"]["task.seconds"]["counts"] == [2, 1]

    def test_worker_memory_published_as_gauges(self, enabled):
        collector = worker_mod.Collector("pool.test")
        for pid, rss in ((12, 50.0), (11, 300.0), (12, 100.0)):
            collector.add(_report(enabled, pid, memory={
                "rss_peak_bytes": rss, "anon_bytes": rss / 2,
            }))
        collector.finish()
        gauges = telemetry.get_metrics().snapshot()["gauges"]
        # Each worker's last reading, indexed by sorted pid: 11 -> worker.0.
        assert gauges["parallel.worker.0.rss_peak_bytes"]["value"] == 300.0
        assert gauges["parallel.worker.1.rss_peak_bytes"]["value"] == 100.0
        assert gauges["parallel.worker_rss_peak_bytes"]["value"] == 300.0
        assert gauges["parallel.worker_anon_bytes"]["value"] == 150.0


# ---------------------------------------------------------------------------
# Multi-pid Chrome trace and flamegraph lanes
# ---------------------------------------------------------------------------


class TestMultiPidTrace:
    def _merged_trace(self, tracer):
        with tracer.span("parent-work"):
            pass
        worker_mod.graft_spans(
            tracer, [_record("worker-work", 0.0, 1.0, tid=5)],
            pid=555, offset=0.0,
        )
        tracer.set_process_label(555, "pool worker (pid 555)")
        return tracer.to_chrome_trace()

    def test_process_and_thread_metadata(self, enabled):
        doc = self._merged_trace(enabled)
        events = doc["traceEvents"]
        own = os.getpid()
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {own, 555}
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert names[own] == "main"
        assert names[555] == "pool worker (pid 555)"
        sort_keys = {
            e["pid"]: e["args"]["sort_index"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_sort_index"
        }
        assert sort_keys[own] == 0 and sort_keys[555] > 0
        assert any(
            e.get("ph") == "M" and e.get("name") == "thread_name"
            and e["pid"] == 555
            for e in events
        )

    def test_flame_boxes_do_not_cross_nest_pids(self, enabled):
        # Same tid in two pids, overlapping in time: tid-only grouping
        # would stack one inside the other.
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": 100.0},
                {"ph": "X", "name": "b", "pid": 2, "tid": 1,
                 "ts": 10.0, "dur": 50.0},
            ]
        }
        boxes = flame_boxes(doc)
        assert {b["depth"] for b in boxes} == {0}
        assert {(b["pid"], b["tid"]) for b in boxes} == {(1, 1), (2, 1)}


# ---------------------------------------------------------------------------
# End-to-end through parallel_map(backend="process")
# ---------------------------------------------------------------------------


def _square_with_span(x):
    with telemetry.span("task.square", x=x):
        telemetry.counter("task.calls").inc()
        return x * x


def _square(x):
    return x * x


def _call_square(x):
    # Looks ``_square`` up at call time, so a patched one reaches fork children.
    return _square(x)


def _threads_during_pool():
    """Thread count of this process while a 2-worker process pool runs."""
    results = parallel_imap(
        _square_with_span, [(i,) for i in range(4)], workers=2,
        backend="process", label="pool.test",
    )
    next(results)
    count = threading.active_count()
    results.close()
    return count


class TestProcessPoolEndToEnd:
    def test_merged_trace_and_metrics(self, enabled):
        results = parallel_map(
            _square_with_span,
            [(i,) for i in range(8)],
            workers=2,
            backend="process",
            label="pool.test",
        )
        assert results == [i * i for i in range(8)]
        own = os.getpid()
        worker_pids = {
            s.pid for s in enabled.find_spans("task.square")
        } - {own, 0}
        assert worker_pids, "expected spans recorded in worker processes"
        snap = telemetry.get_metrics().snapshot()
        assert snap["counters"]["task.calls"] == pytest.approx(8.0)
        assert snap["counters"]["parallel.workers"] >= 1.0
        assert snap["counters"]["worker.seconds.task.square"] >= 0.0
        assert "parallel.worker_rss_peak_bytes" in snap["gauges"]
        doc = enabled.to_chrome_trace()
        meta_pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert worker_pids <= meta_pids

    def test_disabled_telemetry_adds_no_collector_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("telemetry shim used with tracing off")

        monkeypatch.setattr(worker_mod, "Collector", forbidden)
        monkeypatch.setattr(worker_mod, "init_worker", forbidden)
        monkeypatch.setattr(worker_mod, "run_task", forbidden)
        assert not telemetry.is_enabled()
        results = parallel_map(
            _square_with_span, [(i,) for i in range(4)],
            workers=2, backend="process", label="pool.test",
        )
        assert results == [0, 1, 4, 9]

    def test_killed_worker_is_a_clean_worker_error(self, enabled, tmp_path,
                                                   monkeypatch):
        flag = tmp_path / "died"
        monkeypatch.setattr(
            sys.modules[__name__], "_square",
            _die_once(str(flag), _square),
        )
        before = _leftovers()
        with pytest.raises(WorkerError, match="pool.test"):
            parallel_map(
                _call_square, [(i,) for i in range(6)], workers=2,
                backend="process", label="pool.test",
            )
        assert flag.exists()
        assert _leftovers() == (before[0], [])

    @pytest.mark.parametrize("mode", ["traced", "progress"])
    def test_no_parent_thread_beyond_the_executors(self, mode):
        plain = _threads_during_pool()
        if mode == "traced":
            telemetry.enable()
        else:
            progress_mod.enable(stream=io.StringIO())
        try:
            assert _threads_during_pool() == plain
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
            progress_mod.disable()


# ---------------------------------------------------------------------------
# Progress rendering
# ---------------------------------------------------------------------------


class TestProgress:
    def test_lifecycle_and_rendering(self):
        stream = io.StringIO()
        progress_mod.enable(stream=stream)
        try:
            assert progress_mod.is_enabled()
            progress_mod.begin("stage", total=3)
            for _ in range(3):
                progress_mod.task_completed("stage")
            out = stream.getvalue()
            assert "stage" in out and "3/3" in out
        finally:
            progress_mod.disable()
        assert not progress_mod.is_enabled()

    def test_begin_resets_between_repeated_stages(self, monkeypatch):
        monkeypatch.setattr(progress_mod, "RENDER_INTERVAL_S", 0.0)
        stream = io.StringIO()
        progress_mod.enable(stream=stream)
        try:
            progress_mod.begin("s", total=2)
            progress_mod.task_completed("s")
            progress_mod.task_completed("s")
            progress_mod.begin("s", total=2)
            progress_mod.task_completed("s")
            assert "1/2" in stream.getvalue().replace(" ", "")
        finally:
            progress_mod.disable()


# ---------------------------------------------------------------------------
# Run-ledger integration
# ---------------------------------------------------------------------------


def _result_with(info):
    from repro.embedding.base import EmbeddingResult

    with telemetry.run_scope("lightne") as root:
        with telemetry.stage("sparsifier"):
            pass
    return EmbeddingResult(
        vectors=np.zeros((2, 2)), method="lightne",
        timer=telemetry.StageTable(root.children), info=info,
    )


class TestLedgerWorkerFields:
    def test_worker_stage_seconds_and_memory(self):
        result = _result_with(
            {
                "params": {"backend": "process", "workers": 3},
                "resolved_backend": "process",
                "resolved_workers": 3,
                "telemetry": {
                    "metrics": {
                        "counters": {
                            "worker.seconds.sparsifier.batch": 4.5,
                            "unrelated": 1.0,
                        },
                        "gauges": {
                            "parallel.worker.0.rss_peak_bytes": {
                                "value": 100.0, "max": 100.0,
                            },
                            "parallel.worker.1.rss_peak_bytes": {
                                "value": 200.0, "max": 200.0,
                            },
                            "parallel.worker_rss_peak_bytes": {
                                "value": 200.0, "max": 200.0,
                            },
                        },
                        "histograms": {},
                    },
                    "trace_spans": 1,
                },
            }
        )
        record = build_record(result, dataset="d", seed=0)
        assert record.stages["worker.sparsifier.batch"] == pytest.approx(4.5)
        # Worker seconds overlap the parent's wall clock; total_s must not
        # absorb them.
        assert record.total_s == pytest.approx(record.stages["sparsifier"])
        assert record.extra["backend"] == "process"
        assert record.extra["resolved_workers"] == 3
        assert record.extra["worker_rss_peak_bytes"] == [100, 200]
        assert record.extra["worker_rss_peak_max_bytes"] == 200

    def test_backend_recorded_without_telemetry(self):
        result = _result_with(
            {"params": {"backend": None, "workers": 2}}
        )
        record = build_record(result, dataset="d", seed=0)
        assert record.extra["backend"] == "thread"
        assert record.extra["resolved_workers"] == 2
