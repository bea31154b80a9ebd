"""Cross-process telemetry: spools, clock correction, merging, stalls.

Covers the worker-side shim / parent-side merge protocol of
``repro.telemetry.worker`` plus its integration points: the multi-pid
Chrome trace, metric aggregation semantics, heartbeat-based stall
detection, and the run-ledger plumbing for merged worker stage-seconds.
"""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import progress as progress_mod
from repro.telemetry import worker as worker_mod
from repro.telemetry.ledger import build_record
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.report import flame_boxes
from repro.telemetry.tracer import Tracer
from repro.utils.parallel import parallel_map


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
# Spool parsing
# ---------------------------------------------------------------------------


def _write_spool(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line if isinstance(line, str) else json.dumps(line))
            fh.write("\n")


class TestReadSpool:
    def test_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "spool-7.jsonl"
        _write_spool(
            path,
            [
                {"type": "clock", "pid": 7, "epoch_wall": 10.0, "epoch_perf": 1.0},
                {"type": "span", "id": 1, "parent_id": None, "name": "a",
                 "start": 1.0, "end": 2.0, "tid": 3},
                {"type": "metrics", "pid": 7, "snapshot": {"counters": {"c": 1}}},
                '{"type": "span", "id": 2, "na',  # killed mid-write
            ],
        )
        data = worker_mod.read_spool(str(path))
        assert data["clock"]["pid"] == 7
        assert [s["name"] for s in data["spans"]] == ["a"]
        assert data["metrics"]["snapshot"]["counters"]["c"] == 1
        assert data["corrupt_lines"] == 1

    def test_last_cumulative_snapshot_wins(self, tmp_path):
        path = tmp_path / "spool-7.jsonl"
        _write_spool(
            path,
            [
                {"type": "metrics", "pid": 7, "snapshot": {"counters": {"c": 1}}},
                {"type": "metrics", "pid": 7, "snapshot": {"counters": {"c": 5}}},
                {"type": "memory", "pid": 7, "rss_peak_bytes": 10},
                {"type": "memory", "pid": 7, "rss_peak_bytes": 20},
            ],
        )
        data = worker_mod.read_spool(str(path))
        assert data["metrics"]["snapshot"]["counters"]["c"] == 5
        assert data["memory"]["rss_peak_bytes"] == 20

    def test_empty_and_missing_files(self, tmp_path):
        empty = tmp_path / "spool-1.jsonl"
        empty.touch()
        data = worker_mod.read_spool(str(empty))
        assert data["spans"] == [] and data["corrupt_lines"] == 0
        missing = worker_mod.read_spool(str(tmp_path / "nope.jsonl"))
        assert missing["clock"] is None and missing["corrupt_lines"] == 1


# ---------------------------------------------------------------------------
# Clock correction and span grafting
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

    def test_out_of_order_and_skewed_events_graft_sorted(self, enabled):
        events = [
            {"id": 3, "parent_id": 1, "name": "late-child", "start": 5.0,
             "end": 6.0, "tid": 2},
            {"id": 1, "parent_id": None, "name": "root", "start": 1.0,
             "end": 9.0, "tid": 2},
            {"id": 2, "parent_id": 1, "name": "early-child", "start": 2.0,
             "end": 3.0, "tid": 2},
        ]
        count = worker_mod.merge_worker_spans(
            enabled, events, pid=4242, offset=50.0
        )
        assert count == 3
        roots = [s for s in enabled.roots if s.pid == 4242]
        assert [s.name for s in roots] == ["root"]
        assert [c.name for c in roots[0].children] == [
            "early-child", "late-child",
        ]
        # The offset lands worker timestamps on the parent timeline.
        assert roots[0].start == pytest.approx(51.0)
        assert roots[0].end == pytest.approx(59.0)

    def test_orphaned_parent_becomes_root(self, enabled):
        events = [
            {"id": 9, "parent_id": 404, "name": "orphan", "start": 1.0,
             "end": 2.0, "tid": 1},
        ]
        assert worker_mod.merge_worker_spans(
            enabled, events, pid=7, offset=0.0
        ) == 1
        assert "orphan" in {s.name for s in enabled.roots}

    def test_half_written_events_skipped(self, enabled):
        events = [
            {"id": 1, "name": "no-end", "start": 1.0, "end": None, "tid": 1},
            {"id": 2, "name": "ok", "start": 1.0, "end": 2.0, "tid": 1},
        ]
        assert worker_mod.merge_worker_spans(
            enabled, events, pid=7, offset=0.0
        ) == 1


# ---------------------------------------------------------------------------
# merge_spools: directory-level aggregation
# ---------------------------------------------------------------------------


class TestMergeSpools:
    def test_empty_directory(self, tmp_path, enabled):
        summary = worker_mod.merge_spools(str(tmp_path), tracer=enabled)
        assert summary["workers"] == [] and summary["spans"] == 0

    def test_partial_spool_from_dead_worker(self, tmp_path, enabled):
        registry = telemetry.get_metrics()
        _write_spool(
            tmp_path / "spool-99.jsonl",
            [
                {"type": "clock", "pid": 99,
                 "epoch_wall": enabled.epoch_wall,
                 "epoch_perf": enabled.epoch_perf},
                {"type": "span", "id": 1, "parent_id": None, "name": "work",
                 "start": 0.0, "end": 1.5, "tid": 1},
                '{"type": "span", "id": 2',  # died mid-write
            ],
        )
        summary = worker_mod.merge_spools(
            str(tmp_path), tracer=enabled, registry=registry
        )
        assert summary["workers"] == [99]
        assert summary["spans"] == 1
        assert summary["corrupt_lines"] == 1
        snap = registry.snapshot()
        assert snap["counters"]["worker.seconds.work"] == pytest.approx(1.5)
        assert snap["counters"]["parallel.worker_spools"] == pytest.approx(1.0)

    def test_spans_without_clock_skipped_but_accounted(self, tmp_path, enabled):
        registry = telemetry.get_metrics()
        _write_spool(
            tmp_path / "spool-31.jsonl",
            [{"type": "span", "id": 1, "parent_id": None, "name": "w",
              "start": 0.0, "end": 2.0, "tid": 1}],
        )
        summary = worker_mod.merge_spools(
            str(tmp_path), tracer=enabled, registry=registry
        )
        # No clock line -> no trustworthy timeline, so no grafted spans —
        # but the stage-seconds totals (duration-only) still merge.
        assert summary["spans"] == 0
        assert registry.snapshot()["counters"]["worker.seconds.w"] == (
            pytest.approx(2.0)
        )

    def test_worker_memory_published_as_gauges(self, tmp_path, enabled):
        registry = telemetry.get_metrics()
        for pid, rss in ((12, 100.0), (11, 300.0)):
            _write_spool(
                tmp_path / f"spool-{pid}.jsonl",
                [{"type": "memory", "pid": pid, "rss_peak_bytes": rss,
                  "anon_bytes": rss / 2}],
            )
        worker_mod.merge_spools(str(tmp_path), registry=registry)
        gauges = registry.snapshot()["gauges"]
        # Indexed by sorted pid: 11 -> worker.0, 12 -> worker.1.
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
        worker_mod.merge_worker_spans(
            tracer,
            [{"id": 1, "parent_id": None, "name": "worker-work",
              "start": 0.0, "end": 1.0, "tid": 5}],
            pid=555,
            offset=0.0,
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
# Heartbeats and stall detection
# ---------------------------------------------------------------------------


class TestStallMonitor:
    def _beat(self, tmp_path, pid, wall, items=0):
        with open(tmp_path / f"beat-{pid}.json", "w", encoding="utf-8") as fh:
            json.dump({"pid": pid, "wall": wall, "items": items}, fh)

    def test_poll_once_flags_and_recovers(self, tmp_path, enabled):
        now = time.time()
        self._beat(tmp_path, 10, wall=now - 5.0)
        self._beat(tmp_path, 11, wall=now - 0.01)
        monitor = worker_mod.StallMonitor(
            str(tmp_path), label="t", timeout_s=1.0
        )
        assert monitor.poll_once(now=now) == {10}
        assert monitor.stall_events == 1
        snap = telemetry.get_metrics().snapshot()
        assert snap["counters"]["parallel.stalled_workers"] == 1.0
        assert snap["gauges"]["parallel.stalled_workers_current"]["value"] == 1.0
        # Continuous silence is ONE incident, not one per poll.
        assert monitor.poll_once(now=now + 0.1) == {10}
        assert monitor.stall_events == 1
        # Fresh beat -> recovery.
        self._beat(tmp_path, 10, wall=now + 0.2)
        assert monitor.poll_once(now=now + 0.3) == set()
        snap = telemetry.get_metrics().snapshot()
        assert snap["gauges"]["parallel.stalled_workers_current"]["value"] == 0.0

    def test_env_knobs(self, monkeypatch):
        """The two periods are module constants; the environment variables
        that used to override them are not consulted, explicit values are."""
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0.5")
        monkeypatch.setenv("REPRO_STALL_TIMEOUT_S", "2.5")
        default = worker_mod.SpoolCollector("x", 1, tracing=False, progress=False)
        explicit = worker_mod.SpoolCollector(
            "x", 1, tracing=False, progress=False, heartbeat_s=0.5, timeout_s=2.5
        )
        try:
            assert default.heartbeat_s == worker_mod.HEARTBEAT_S == 0.25
            assert default.monitor.timeout_s == worker_mod.STALL_TIMEOUT_S == 30.0
            assert (explicit.heartbeat_s, explicit.monitor.timeout_s) == (0.5, 2.5)
        finally:
            default.finish()
            explicit.finish()


# ---------------------------------------------------------------------------
# End-to-end through parallel_map(backend="process")
# ---------------------------------------------------------------------------


def _square_with_span(x):
    with telemetry.span("task.square", x=x):
        telemetry.counter("task.calls").inc()
        return x * x


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


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
        assert snap["counters"]["parallel.worker_spools"] >= 1.0
        assert snap["counters"]["worker.seconds.task.square"] >= 0.0
        assert "parallel.worker_rss_peak_bytes" in snap["gauges"]
        doc = enabled.to_chrome_trace()
        meta_pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert worker_pids <= meta_pids

    def test_disabled_telemetry_adds_no_collector_state(self):
        assert not telemetry.is_enabled()
        assert worker_mod.maybe_collector("x", 4) is None
        results = parallel_map(
            _square_with_span, [(i,) for i in range(4)],
            workers=2, backend="process", label="pool.test",
        )
        assert results == [0, 1, 4, 9]

    def test_stall_detector_trips_on_sleeping_worker(
        self, enabled, monkeypatch
    ):
        # Beats only at init/task-completion (huge interval), and a stall
        # threshold far below the sleep: the monitor must flag the silent
        # worker while the task is still running.
        monkeypatch.setattr(worker_mod, "HEARTBEAT_S", 3600.0)
        monkeypatch.setattr(worker_mod, "STALL_TIMEOUT_S", 0.2)
        with telemetry.run_scope("run") as root:
            parallel_map(
                _sleepy, [(1.2,), (1.2,)], workers=2,
                backend="process", label="pool.sleepy",
            )
        snap = telemetry.get_metrics().snapshot()
        assert snap["counters"].get("parallel.stalled_workers", 0) >= 1.0
        # The monitor thread counts into the run that launched the pool.
        assert root.metrics.snapshot()["counters"] == snap["counters"]


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

    def test_update_is_monotonic(self, monkeypatch):
        monkeypatch.setattr(progress_mod, "RENDER_INTERVAL_S", 0.0)
        stream = io.StringIO()
        progress_mod.enable(stream=stream)
        try:
            progress_mod.begin("s", total=10)
            progress_mod.update("s", done=5, total=10, workers=2, stalled=0)
            progress_mod.update("s", done=3, total=10, workers=2, stalled=0)
            # A stale heartbeat sum must not roll the display backwards.
            assert "5/10" in stream.getvalue().replace(" ", "")
        finally:
            progress_mod.disable()

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
