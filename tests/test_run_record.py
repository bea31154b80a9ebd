"""One record per run: the run's span tree is the only stage clock, its
counters are scoped to the run, and ``parallel_map`` owns span parenting."""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
from collections import Counter

import pytest

from repro import telemetry
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.embedding.registry import get_method, list_methods, make_params
from repro.graph.generators import dcsbm_graph
from repro.telemetry import ledger
from repro.telemetry import run as run_mod
from repro.utils.parallel import parallel_map

TRACE_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "trace_tree_7a8c75f.json"
SUBSTRATES = ["thread", "process"]


@pytest.fixture(scope="module")
def graph():
    g, _ = dcsbm_graph(600, 3, avg_degree=8, seed=1)
    return g


@pytest.fixture(scope="module")
def small_graph():
    g, _ = dcsbm_graph(80, 2, avg_degree=6, seed=1)
    return g


@pytest.fixture
def tracer():
    active = telemetry.enable()
    yield active
    telemetry.disable()


def _params(backend, **knobs):
    return LightNEParams(
        dimension=8, window=3, propagation_order=3, workers=2, batch_size=250,
        backend=backend, **knobs,
    )


class TestRunScopedMetrics:
    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_consecutive_runs_report_themselves_only(
        self, graph, tracer, tmp_path, backend
    ):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=path, dataset="ds"):
            results = [
                lightne_embedding(graph, _params(backend), 7)
                for _ in range(3)
            ]
        spans = [sum(1 for _ in r.run.walk()) for r in results]
        for result, count in zip(results, spans):
            counters = result.run.counters
            assert counters["svd.operator_passes"] == 6
            for name in ("sparsifier.draws", "spmm.calls"):
                assert counters[name] == results[0].run.counters[name] > 0
            assert count == spans[0]
        # Every span of the process belongs to exactly one of the three runs.
        assert 3 * spans[0] == tracer.span_count
        records = ledger.RunLedger(path).records()
        first = records[0].metrics["counters"]
        assert all(r.metrics["counters"] == first for r in records)
        # ... and every count reached the tracer too: it has the totals.
        totals = tracer.counters
        assert totals == {k: 3 * v for k, v in first.items()}


class TestTraceTreeParity:
    """``parallel_map`` parents pool-task spans itself; the tree is the one
    the hand-threaded ``parent_span`` arguments used to build."""

    @pytest.mark.parametrize(
        "variant,knobs",
        [("path", {}), ("hash-sharded", {"aggregator": "hash-sharded"})],
    )
    @pytest.mark.parametrize("backend", SUBSTRATES)
    def test_tree_equals_parent_commit_fixture(
        self, graph, tracer, backend, variant, knobs
    ):
        lightne_embedding(graph, _params(backend, **knobs), seed=7)
        own = os.getpid()
        rows = Counter(
            (
                span.name,
                span.parent.name if span.parent else None,
                "main" if span.pid in (0, own) else "worker",
                tuple(sorted(span.attributes)),
            )
            for span in tracer.iter_spans()
        )
        fixture = json.loads(TRACE_FIXTURE.read_text())
        recorded = fixture[f"{backend}/{variant}"]
        expected = Counter(
            {(name, parent, lane, tuple(keys)): count
             for name, parent, lane, keys, count in recorded}
        )
        # Recorded from an earlier commit; its declared differences (the
        # process runs' ``spmm.chunk`` spans, the ``ppr`` keys) are deleted
        # from the recording, and the process runs' batch spans moved from
        # the worker lane to the main one when the process pool went.
        assert rows == expected
        # The aggregator is a name on the spans, not a pass: the hash-sharded
        # run's tree (its ``aggregate.shard`` spans and shard stats deleted
        # from the recording) is the default run's, row for row.
        assert recorded == fixture[f"{backend}/path"]
        # ... and the backend selects nothing: the process run's tree is
        # the thread run's, row for row.
        assert recorded == fixture[f"thread/{variant}"]


    def test_thread_pool_tasks_land_under_the_submitting_span(self, tracer):
        def task(index):
            with telemetry.span("task", index=index):
                telemetry.count("task.calls")
            return threading.get_ident()

        with telemetry.run_scope("run") as root:
            with telemetry.stage("stage") as stage:
                idents = parallel_map(task, [(i,) for i in range(6)], workers=3)
        assert set(idents) != {threading.get_ident()}
        tasks = tracer.find_spans("task")
        assert len(tasks) == 6 and all(span.parent is stage for span in tasks)
        assert root.counters == {"task.calls": 6.0}


class TestStageClock:
    @pytest.mark.parametrize("name", [s.name for s in list_methods()])
    def test_untraced_run_allocates_root_and_stages_only(
        self, small_graph, monkeypatch, name
    ):
        tracers = []

        class Recording(telemetry.Tracer):
            def __init__(self):
                super().__init__()
                tracers.append(self)

        monkeypatch.setattr(run_mod, "Tracer", Recording)
        assert not telemetry.is_enabled()
        spec = get_method(name)
        result = spec.builder(small_graph, make_params(name, dimension=8), seed=0)
        assert list(result.timer.stages) == list(spec.stages)
        (own,) = tracers
        assert own.span_count == 1 + len(spec.stages)
        assert [root.name for root in own.roots] == [spec.name]
        assert "telemetry" not in result.info

    @pytest.mark.parametrize("name", [s.name for s in list_methods()])
    def test_traced_run_has_the_same_stage_table(self, small_graph, tracer, name):
        spec = get_method(name)
        result = spec.builder(small_graph, make_params(name, dimension=8), seed=0)
        assert list(result.timer.stages) == list(spec.stages)
        (root,) = tracer.roots
        assert result.timer.stages == {
            child.name: child.duration for child in root.children
        }


class TestNestedRuns:
    def test_pipeline_runs_inside_a_run_keep_their_own_tables(self, graph, tracer):
        with telemetry.run_scope("outer") as outer:
            inner = [lightne_embedding(graph, _params("thread"), seed) for seed in (0, 1)]
        for part in inner:
            assert list(part.timer.stages) == ["sparsifier", "svd", "propagation"]
            assert part.run.counters["svd.operator_passes"] == 6
        assert inner[0].timer.stages != inner[1].timer.stages
        assert outer.counters["svd.operator_passes"] == 12
        assert tracer.counters["svd.operator_passes"] == 12
        assert [child.name for child in outer.children] == ["lightne", "lightne"]

    def test_run_inside_a_run_rolls_up_through_it(self, tracer):
        with telemetry.run_scope("outer") as outer:
            telemetry.count("c")
            with telemetry.run_scope("inner") as inner:
                telemetry.count("c", 2)
                with telemetry.stage("s"):
                    pass
            with telemetry.stage("t"):
                pass
        assert inner.counters == {"c": 2.0}
        assert outer.counters == {"c": 3.0}
        assert tracer.counters == {"c": 3.0}
        assert [c.name for c in inner.children] == ["s"]
        assert [c.name for c in outer.children] == ["inner", "t"]

    def test_pool_counts_are_exact_in_every_enclosing_total(self, tracer):
        # Exact binary fractions sum without rounding in any order, so every
        # total is exact whatever the interleaving: a lost or doubled update
        # moves it.
        calls = 5000

        def task(worker):
            for call in range(calls):
                telemetry.count("x", 0.125 if call % 2 else 0.375)
            return worker

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: provoke races
        try:
            with telemetry.run_scope("outer") as outer:
                telemetry.count("x", 0.5)
                with telemetry.run_scope("inner") as inner:
                    workers = [(w,) for w in range(4)]
                    assert parallel_map(task, workers, workers=4) == [0, 1, 2, 3]
        finally:
            sys.setswitchinterval(interval)
        pooled = 4 * (calls // 2) * (0.125 + 0.375)
        assert inner.counters == {"x": pooled}
        assert outer.counters == {"x": pooled + 0.5}
        assert tracer.counters == {"x": pooled + 0.5}
