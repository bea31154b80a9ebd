"""Telemetry merge semantics, flamegraph lanes, progress lines and the
ledger's ``backend`` field.

What a finished run's registry rolls up with (histograms bucket-wise,
counters summed, gauges at their peak), how the report lays out the lanes
of a Chrome trace, the ``--progress`` renderer and the execution provenance
every ledger record carries.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import progress as progress_mod
from repro.telemetry.ledger import build_record
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.report import flame_boxes


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
# Flamegraph lanes
# ---------------------------------------------------------------------------


class TestMultiPidTrace:
    def test_flame_boxes_do_not_cross_nest_pids(self):
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
    def test_backend_recorded_without_telemetry(self):
        result = _result_with(
            {"params": {"backend": None, "workers": 2}}
        )
        record = build_record(result, dataset="d", seed=0)
        assert record.extra["backend"] == "thread"
        assert record.extra["resolved_workers"] == 2
