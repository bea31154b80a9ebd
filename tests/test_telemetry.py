"""Tests for repro.telemetry: spans, counters, memory profiling, exporters."""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import ledger
from repro.telemetry import progress as progress_mod
from repro.telemetry.tracer import NULL_SPAN, Tracer


@pytest.fixture
def enabled():
    """Fresh global tracer (empty counters), torn down afterwards."""
    tracer = telemetry.enable()
    yield tracer
    telemetry.disable()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_tree(self, enabled):
        with telemetry.span("root"):
            with telemetry.span("child"):
                with telemetry.span("grandchild"):
                    pass
            with telemetry.span("sibling"):
                pass
        tree = enabled.span_tree()
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["child", "sibling"]
        assert root["children"][0]["children"][0]["name"] == "grandchild"

    def test_duration_none_while_open(self, enabled):
        with telemetry.span("outer") as span:
            assert span.duration is None
        assert span.duration is not None
        assert span.duration >= 0.0

    def test_attributes_and_chaining(self, enabled):
        with telemetry.span("s", alpha=1) as span:
            span.set_attribute("beta", 2).set_attributes(gamma=3, delta="x")
        assert span.attributes == {"alpha": 1, "beta": 2, "gamma": 3, "delta": "x"}

    def test_exception_marks_error_and_propagates(self, enabled):
        with pytest.raises(ValueError):
            with telemetry.span("boom") as span:
                raise ValueError("nope")
        assert span.attributes["error"] == "ValueError"
        assert span.duration is not None

    def test_current_span_tracks_stack(self, enabled):
        assert telemetry.current_span() is None
        with telemetry.span("outer") as outer:
            assert telemetry.current_span() is outer
            with telemetry.span("inner") as inner:
                assert telemetry.current_span() is inner
            assert telemetry.current_span() is outer
        assert telemetry.current_span() is None

    def test_cross_thread_parenting(self, enabled):
        """Worker threads attach to the span they adopt from the dispatcher."""
        with telemetry.span("dispatch") as parent:
            captured = telemetry.current_span()

            def work(i):
                with telemetry.adopt(captured), telemetry.span("task", index=i):
                    pass

            threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(parent.children) == 3
        assert {c.attributes["index"] for c in parent.children} == {0, 1, 2}

    def test_thread_without_parent_is_root(self, enabled):
        def work():
            with telemetry.span("orphan"):
                pass

        with telemetry.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        names = {s.name for s in enabled.roots}
        assert names == {"main", "orphan"}

    def test_find_spans_and_count(self, enabled):
        with telemetry.span("a"):
            for _ in range(3):
                with telemetry.span("b"):
                    pass
        assert len(enabled.find_spans("b")) == 3
        assert enabled.span_count == 4


class TestDisabledFastPath:
    def test_span_returns_shared_null(self):
        assert not telemetry.is_enabled()
        assert telemetry.span("anything", k=1) is NULL_SPAN
        with telemetry.span("x") as s:
            assert s is NULL_SPAN
            s.set_attribute("a", 1).set_attributes(b=2)
        assert telemetry.current_span() is None
        assert telemetry.get_tracer() is None

    def test_count_is_a_noop_while_disabled(self):
        # One global check and out: nothing is recorded, nothing validated.
        assert telemetry.count("c", 5) is None
        telemetry.count("c", -1)
        tracer = telemetry.enable()
        try:
            assert tracer.counters == {}
        finally:
            telemetry.disable()

    def test_enable_disable_roundtrip(self):
        tracer = telemetry.enable()
        try:
            assert telemetry.is_enabled()
            assert telemetry.get_tracer() is tracer
            assert isinstance(telemetry.span("s"), telemetry.Span)
        finally:
            telemetry.disable()
        assert not telemetry.is_enabled()


class TestExporters:
    def test_chrome_trace_structure(self, enabled):
        with telemetry.span("root", n=600):
            with telemetry.span("leaf", batch=np.int64(3)):
                pass
        doc = enabled.to_chrome_trace()
        # Round-trips through JSON (numpy attrs coerced).
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"root", "leaf"}
        meta_names = {e["name"] for e in metadata}
        assert {"process_name", "thread_name"} <= meta_names
        leaf = next(e for e in complete if e["name"] == "leaf")
        assert leaf["args"]["batch"] == 3
        assert leaf["dur"] >= 0.0
        assert doc["otherData"]["exporter"] == "repro.telemetry"

    def test_chrome_trace_carries_run_counters(self, enabled):
        with telemetry.run_scope("run"):
            with telemetry.span("leaf"):
                telemetry.count("b", 2)
                telemetry.count("a")
        events = {
            e["name"]: e for e in enabled.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        }
        assert events["run"]["args"]["counters"] == {"a": 1.0, "b": 2.0}
        assert list(events["run"]["args"]["counters"]) == ["a", "b"]
        assert "counters" not in events["leaf"]["args"]

    def test_write_chrome_trace_file(self, enabled, tmp_path):
        with telemetry.span("only"):
            pass
        path = tmp_path / "trace.json"
        enabled.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert any(e["name"] == "only" for e in doc["traceEvents"])

    def test_exporters_create_parent_dirs(self, enabled, tmp_path):
        """Crash-safe writes: missing result directories are created."""
        with telemetry.span("only"):
            pass
        trace = tmp_path / "results" / "deep" / "trace.json"
        enabled.write_chrome_trace(trace)
        assert json.loads(trace.read_text())["traceEvents"]

    def test_chrome_trace_replace_is_atomic(self, enabled, tmp_path):
        """An existing trace file is replaced wholesale, never truncated."""
        path = tmp_path / "trace.json"
        path.write_text("{\"stale\": true}")
        with telemetry.span("fresh"):
            pass
        enabled.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert "stale" not in doc
        assert any(e["name"] == "fresh" for e in doc["traceEvents"])
        # No temp-file litter left beside the destination.
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class TestCount:
    def test_count_accumulates_and_rejects_negative(self, enabled):
        telemetry.count("events")
        telemetry.count("events", 2.5)
        assert enabled.counters == {"events": 3.5}
        with pytest.raises(ValueError):
            telemetry.count("events", -1)
        assert enabled.counters == {"events": 3.5}

    def test_totals_are_json_serializable(self, enabled):
        with telemetry.run_scope("run") as root:
            telemetry.count("c", 7)
            telemetry.count("b", 0.5)
            telemetry.count("n", np.int64(3))
        for totals in (enabled.counters, root.counters):
            assert json.loads(json.dumps(totals)) == {"b": 0.5, "c": 7, "n": 3}
            assert all(type(value) is float for value in totals.values())

    def test_enable_starts_from_empty_totals(self, enabled):
        telemetry.count("will-vanish")
        assert enabled.counters == {"will-vanish": 1.0}
        fresh = telemetry.enable()
        assert fresh is not enabled and fresh.counters == {}

    def test_counts_outside_a_run_reach_only_the_tracer(self, enabled):
        with telemetry.span("plain") as plain:
            telemetry.count("c")
        assert plain.counters is None
        assert enabled.counters == {"c": 1.0}

    def test_write_metrics_snapshot(self, enabled, tmp_path):
        from benchmarks.harness import write_metrics_snapshot

        path = tmp_path / "results" / "run" / "metrics.json"
        assert write_metrics_snapshot(str(path)) is None  # nothing counted
        telemetry.count("z", 2)
        telemetry.count("a")
        assert write_metrics_snapshot(str(path)) == str(path)
        assert path.read_text() == json.dumps(
            {"counters": {"a": 1.0, "z": 2.0}}, indent=2
        )


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class TestMemory:
    def test_current_and_peak_rss_readable_on_linux(self):
        rss = telemetry.current_rss_bytes()
        peak = telemetry.peak_rss_bytes()
        if rss is not None:  # /proc may be absent on exotic platforms
            assert rss > 0
        if peak is not None:
            assert peak > 0

    def test_sampler_records_profile(self):
        with telemetry.MemorySampler(interval=0.001) as sampler:
            _ = bytearray(4 << 20)
        profile = sampler.profile
        assert profile is not None
        assert profile.duration_s > 0
        if profile.rss_peak_bytes is not None:
            assert profile.rss_peak_bytes >= (profile.rss_start_bytes or 0)

    def test_sampler_double_start_raises(self):
        sampler = telemetry.MemorySampler(interval=0.001)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()
        with pytest.raises(ValueError):
            telemetry.MemorySampler(interval=0.0)


# ---------------------------------------------------------------------------
# Acceptance: a traced LightNE run produces the documented span tree + metrics
# ---------------------------------------------------------------------------


class TestPipelineAcceptance:
    @pytest.fixture
    def traced_run(self, enabled):
        from repro import LightNEParams, dcsbm_graph, lightne_embedding

        graph, _ = dcsbm_graph(150, 3, avg_degree=8, seed=0)
        params = LightNEParams(
            dimension=16, window=3, propagation_order=4, workers=2
        )
        result = lightne_embedding(graph, params, seed=0)
        return enabled, result

    def test_span_tree_covers_pipeline(self, traced_run):
        tracer, _ = traced_run
        names = {span.name for span in tracer.iter_spans()}
        assert {"lightne", "sparsifier", "svd", "propagation"} <= names
        # Per-batch sampling children live under the sparsifier stage.
        batches = tracer.find_spans("sparsifier.batch")
        assert batches
        for batch in batches:
            ancestors = []
            node = batch.parent
            while node is not None:
                ancestors.append(node.name)
                node = node.parent
            assert "sparsifier" in ancestors
        assert tracer.find_spans("svd.power_iteration")
        assert tracer.find_spans("propagation.chebyshev_term")

    def test_metrics_snapshot_has_all_kinds(self, traced_run):
        tracer, result = traced_run
        snap = ledger.build_record(result).metrics
        assert set(snap) == {"counters"}
        assert snap["counters"] == tracer.counters
        assert snap["counters"]["sparsifier.batches"] >= 1
        # Per-batch latency is the batch span's duration.
        batches = tracer.find_spans("sparsifier.batch")
        assert len(batches) == snap["counters"]["sparsifier.batches"]
        assert all(batch.duration > 0 for batch in batches)

    def test_chrome_trace_round_trips(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"lightne", "sparsifier", "svd", "propagation"} <= names

    def test_result_info_reports_telemetry(self, traced_run):
        _, result = traced_run
        assert result.run.counters is not None
        assert sum(1 for _ in result.run.walk()) > 0
        assert result.run.counters

    def test_same_vectors_with_and_without_telemetry(self):
        """Instrumentation must not perturb the deterministic pipeline."""
        from repro import LightNEParams, dcsbm_graph, lightne_embedding

        graph, _ = dcsbm_graph(120, 3, avg_degree=8, seed=1)
        params = LightNEParams(dimension=8, window=3, propagation_order=3)
        plain = lightne_embedding(graph, params, seed=7)
        telemetry.enable()
        try:
            traced = lightne_embedding(graph, params, seed=7)
        finally:
            telemetry.disable()
        np.testing.assert_array_equal(plain.vectors, traced.vectors)
        assert plain.run.counters is None
        assert "telemetry" not in plain.info


# ---------------------------------------------------------------------------
# Progress rendering
# ---------------------------------------------------------------------------


class TestProgress:
    """``--progress`` is a close hook on the tracer: it counts sampling slabs
    and Chebyshev terms from the span stream, nothing of its own."""

    def test_lines_are_drawn_from_span_closes(self, enabled):
        from repro import LightNEParams, dcsbm_graph, lightne_embedding

        graph, _ = dcsbm_graph(150, 3, avg_degree=8, seed=0)
        params = LightNEParams(
            dimension=8, window=3, workers=2, batch_size=500,
            propagation_order=10,
        )
        stream = io.StringIO()
        enabled.on_close = progress_mod.ProgressLines(stream)
        for _ in range(2):
            result = lightne_embedding(graph, params, seed=0)
            batches = int(result.run.counters["sparsifier.batches"])
            assert batches > 1
            lines = stream.getvalue().split("\n")
            assert lines[-3].endswith(f"sparsifier.sampling: {batches}/{batches}")
            assert lines[-2].endswith("propagation: 9/9")
            # Every run counts from 0 again.
            assert lines[-3].startswith("\rsparsifier.sampling: 1/?")
            assert lines[-2].startswith("\rpropagation: 1/?")
            stream.seek(0)
            stream.truncate()

    def test_close_ends_an_interrupted_line(self, enabled):
        stream = io.StringIO()
        enabled.on_close = lines = progress_mod.ProgressLines(stream)
        with telemetry.span("sparsifier.sampling"):
            with telemetry.span("sparsifier.batch"):
                pass
            with telemetry.span("other"):
                pass
            lines.close()
        assert stream.getvalue() == "\rsparsifier.sampling: 1/?\rsparsifier.sampling: 1/?\n"
