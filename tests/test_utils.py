"""Tests for repro.utils: rng plumbing, timers, chunking."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils.parallel import (
    BACKENDS,
    chunk_ranges,
    parallel_imap,
    parallel_map,
    resolve_backend,
)


# Module-level so the process backend can pickle them.
def _double(x):
    return x * 2


def _add(a, b):
    return a + b


def _boom(x):
    if x == 2:
        raise RuntimeError("worker failure")
    time.sleep(0.01)
    return x


_INIT_STATE = {}


def _remember(tag):
    _INIT_STATE["tag"] = tag


def _read_tag(_):
    return _INIT_STATE.get("tag")
from repro.utils.rng import derive_seed, ensure_rng, spawn_batch_rngs
from repro import telemetry
from repro.telemetry import StageTable, Tracer


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnBatchRngs:
    def test_count_and_reproducibility(self):
        first = [g.random(3) for g in spawn_batch_rngs(5, 3)]
        second = [g.random(3) for g in spawn_batch_rngs(5, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_prefix_stable_across_counts(self):
        # The stream for batch i must not depend on how many batches exist
        # in total.
        few = [g.random(4) for g in spawn_batch_rngs(9, 2)]
        many = [g.random(4) for g in spawn_batch_rngs(9, 6)]
        for x, y in zip(few, many):
            np.testing.assert_array_equal(x, y)

    def test_generator_input_consumes_one_draw(self):
        # The parent generator must advance identically no matter the count,
        # so downstream consumers see the same rng state.
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        spawn_batch_rngs(a, 2)
        spawn_batch_rngs(b, 10)
        np.testing.assert_array_equal(a.random(5), b.random(5))

    def test_seed_sequence_input(self):
        x = [g.random(2) for g in spawn_batch_rngs(np.random.SeedSequence(4), 3)]
        y = [g.random(2) for g in spawn_batch_rngs(np.random.SeedSequence(4), 3)]
        for u, v in zip(x, y):
            np.testing.assert_array_equal(u, v)

    def test_children_independent(self):
        a, b = spawn_batch_rngs(7, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_zero_count(self):
        assert spawn_batch_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_batch_rngs(0, -1)


class TestDeriveSeed:
    def test_none_passthrough(self):
        assert derive_seed(None, 3) is None

    def test_deterministic(self):
        assert derive_seed(10, 1) == derive_seed(10, 1)

    def test_salt_changes_seed(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)


class TestTimer:
    """The one stopwatch is the span (``repro.utils.timer.Timer`` is gone)."""

    def test_elapsed_positive(self):
        with Tracer().span("t") as span:
            assert span.duration is None  # still open
            time.sleep(0.001)
        assert span.duration > 0


class TestStageTimer:
    """``EmbeddingResult.timer``: the read-only stage table over a run
    span's children (what ``StageTimer`` used to accumulate by hand)."""

    def test_stage_accumulates(self):
        with telemetry.run_scope("run") as root:
            with telemetry.stage("a") as first:
                pass
            with telemetry.stage("a") as second:
                pass
        timer = StageTable(root.children)
        assert timer.stages["a"] == pytest.approx(
            first.duration + second.duration
        )
        assert list(timer.stages) == ["a"]

    def test_total(self, stage_table):
        timer = stage_table(("x", 1.0), ("y", 2.0))
        assert timer.total == pytest.approx(3.0)

    def test_order_preserved(self, stage_table):
        timer = stage_table(("b", 1.0), ("a", 1.0))
        assert [name for name, _ in timer.as_rows()] == ["b", "a"]

    def test_format_empty(self):
        assert "no stages" in StageTable().format()

    def test_format_contains_stage_names(self, stage_table):
        text = stage_table(("sparsifier", 1.5)).format()
        assert "sparsifier" in text and "total" in text

    def test_counter_set_get(self, stage_table):
        timer = stage_table(("sparsifier", 1.0, {"workers": 4}))
        assert timer.get_counter("sparsifier", "workers") == 4
        assert timer.get_counter("sparsifier", "missing", default=-1.0) == -1.0
        assert timer.get_counter("nope", "workers") == 0.0

    def test_counter_overwrites(self):
        """A counter is a stage-span attribute: the last write is the value,
        also across two spans of one (re-entered) stage."""
        with telemetry.run_scope("run") as root:
            with telemetry.stage("s") as span:
                span.set_attribute("batches", 1)
                span.set_attribute("batches", 9)
            timer = StageTable(root.children)
            assert timer.get_counter("s", "batches") == 9
            with telemetry.stage("s", batches=12):
                pass
        assert timer.get_counter("s", "batches") == 12

    def test_counter_rows_follow_stage_order(self, stage_table):
        timer = stage_table(
            ("svd", 1.0, {"rank": 32}),
            ("sparsifier", 1.0, {"samples_per_sec": 10.5, "aggregator": "sort"}),
        )
        assert timer.counters == {
            "svd": {"rank": 32.0},
            "sparsifier": {"samples_per_sec": 10.5},
        }
        assert list(timer.counters) == ["svd", "sparsifier"]

    def test_format_includes_counters(self, stage_table):
        text = stage_table(
            ("sparsifier", 0.5, {
                "samples_per_sec": 1234567.0, "batches": 3,
                "sampling_seconds": 0.00162,
            }),
        ).format()
        assert "sparsifier.samples_per_sec = 1,234,567" in text
        assert "sparsifier.batches = 3" in text
        assert "sparsifier.sampling_seconds = 0.00162" in text

    def test_stage_nesting_is_safe(self):
        with telemetry.run_scope("run") as root:
            with telemetry.stage("outer") as outer:
                with telemetry.stage("inner") as inner:
                    time.sleep(0.001)
        timer = StageTable(root.children)
        # The nested block is a child of the stage, not a second stage: it
        # is inside "outer"'s time and not counted again in the total.
        assert list(timer.stages) == ["outer"]
        assert inner.parent is outer
        assert timer.total == timer.stages["outer"] >= inner.duration

    def test_stage_yields_span_and_writes_through_to_tracer(self):
        tracer = telemetry.enable()
        try:
            with telemetry.run_scope("run") as root:
                with telemetry.stage("svd", rank=8) as span:
                    span.set_attribute("extra", 1)
            assert tracer.find_spans("svd")[0].attributes == {
                "rank": 8, "extra": 1,
            }
            # Outside a run a stage is a plain span on the installed tracer.
            with telemetry.stage("sparsifier"):
                pass
            assert tracer.find_spans("sparsifier")[0].parent is None
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
        assert "svd" in StageTable(root.children).stages

    def test_stage_is_real_inside_a_run_and_noop_outside_when_disabled(self):
        assert not telemetry.is_enabled()
        assert telemetry.stage("svd") is telemetry.NULL_SPAN
        with telemetry.run_scope("run") as root:
            with telemetry.stage("svd"):
                assert telemetry.span("svd.batch") is telemetry.NULL_SPAN
        assert root.metrics is None
        assert [child.name for child in root.children] == ["svd"]
        assert root.tracer.span_count == 2

    def test_from_spans_builds_table5_view(self):
        tracer = telemetry.enable()
        try:
            with telemetry.span("sparsifier", workers=2):
                pass
            with telemetry.span("svd", rank=16, label="x"):
                pass
            with telemetry.span("open"):
                timer = StageTable(tracer.roots)
                assert list(timer.stages) == ["sparsifier", "svd"]
        finally:
            telemetry.disable()
        assert list(timer.stages) == ["sparsifier", "svd", "open"]  # a live view
        assert timer.get_counter("svd", "rank") == 16.0
        assert timer.get_counter("sparsifier", "workers") == 2.0
        # Non-numeric attributes are not counters.
        assert timer.get_counter("svd", "label", default=-1.0) == -1.0


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        assert chunk_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        ranges = chunk_ranges(2, 5)
        assert ranges == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_ranges(0, 3) == []

    def test_covers_everything(self):
        ranges = chunk_ranges(17, 4)
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(17))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(lambda x: x * 2, [(1,), (2,), (3,)]) == [2, 4, 6]

    def test_threaded_order_preserved(self):
        def work(x):
            time.sleep(0.001 * (5 - x))
            return x

        assert parallel_map(work, [(i,) for i in range(5)], workers=4) == list(range(5))

    def test_multiple_args(self):
        assert parallel_map(lambda a, b: a + b, [(1, 2), (3, 4)]) == [3, 7]

    def test_empty(self):
        assert parallel_map(lambda x: x, []) == []

    def test_process_backend(self):
        got = parallel_map(_double, [(i,) for i in range(6)],
                           workers=3, backend="process")
        assert got == [0, 2, 4, 6, 8, 10]

    def test_process_backend_multiple_args(self):
        assert parallel_map(_add, [(1, 2), (3, 4)],
                            workers=2, backend="process") == [3, 7]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            parallel_map(_double, [(1,), (2,)], workers=2, backend="fiber")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fail_fast_first_error_wins(self, backend):
        # The exception raised must be the earliest failure in submission
        # order, and the pool must shut down without waiting for the rest.
        with pytest.raises(RuntimeError, match="worker failure"):
            parallel_map(_boom, [(i,) for i in range(8)],
                         workers=4, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_initializer_runs(self, backend):
        got = parallel_map(_read_tag, [(0,), (1,)], workers=2, backend=backend,
                           initializer=_remember, initargs=("hello",))
        assert got == ["hello", "hello"]

    def test_initializer_runs_on_serial_path(self):
        _INIT_STATE.clear()
        got = parallel_map(_read_tag, [(0,)], workers=4, backend="thread",
                           initializer=_remember, initargs=("inline",))
        assert got == ["inline"]


class TestParallelImap:
    """The generator body of ``parallel_map``: ordered, bounded in flight."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_ordered_results_through_a_window(self, backend, workers):
        stream = parallel_imap(
            _double, [(i,) for i in range(9)], workers=workers,
            backend=backend, window=2,
        )
        assert next(stream) == 0  # a generator, not a list
        assert list(stream) == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_window_bounds_tasks_submitted_and_not_yet_consumed(self):
        started = []

        def work(x):
            started.append(x)
            time.sleep(0.002 * (x % 3))
            return x

        consumed = 0
        for got in parallel_imap(
            work, [(i,) for i in range(20)], workers=4, window=3
        ):
            assert got == consumed
            consumed += 1
            # Refilled before the hand-over: the window, plus what was read.
            assert len(started) <= consumed + 3
        assert consumed == 20 and sorted(started) == list(range(20))

    def test_serial_path_computes_on_demand(self):
        calls = []
        stream = parallel_imap(calls.append, [(i,) for i in range(5)], workers=1)
        assert calls == []
        next(stream)
        assert calls == [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fail_fast_through_a_window(self, backend):
        stream = parallel_imap(
            _boom, [(i,) for i in range(8)], workers=2, backend=backend, window=2
        )
        got = []
        # Task 2 may fail while task 1 still runs: the error does not wait.
        with pytest.raises(RuntimeError, match="worker failure"):
            for value in stream:
                got.append(value)
        assert got in ([0], [0, 1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closing_early_stops_the_pool(self, backend):
        import multiprocessing
        import threading

        before = threading.active_count()
        stream = parallel_imap(
            _double, [(i,) for i in range(50)], workers=2, backend=backend,
            window=2,
        )
        assert next(stream) == 0
        stream.close()
        assert multiprocessing.active_children() == []
        assert threading.active_count() <= before
        # ... and the next pool works.
        assert parallel_map(
            _double, [(1,), (2,)], workers=2, backend=backend
        ) == [2, 4]


class TestResolveBackend:
    def test_none_is_thread(self):
        assert resolve_backend(None) == "thread"

    def test_passthrough(self):
        assert resolve_backend("process") == "process"
        assert resolve_backend("thread") == "thread"

    def test_invalid(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fiber")

    def test_invalid_is_a_library_error(self):
        from repro.errors import BackendError, ReproError

        with pytest.raises(ReproError, match="backend") as info:
            resolve_backend("gpu")
        assert isinstance(info.value, BackendError)
        assert isinstance(info.value, ValueError)


class TestLogging:
    def test_logger_namespaced(self):
        from repro.utils.log import get_logger

        assert get_logger("repro.embedding.lightne").name == "repro.embedding.lightne"
        assert get_logger("custom").name == "repro.custom"

    def test_silent_by_default(self, capsys):
        from repro.embedding import LightNEParams, lightne_embedding
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(30, 0.3, seed=0)
        lightne_embedding(
            g, LightNEParams(dimension=4, window=2, propagate=False), seed=0
        )
        captured = capsys.readouterr()
        assert "lightne:" not in captured.err

    def test_debug_lines_emitted(self, caplog):
        import logging

        from repro.embedding import LightNEParams, lightne_embedding
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(30, 0.3, seed=0)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            lightne_embedding(
                g, LightNEParams(dimension=4, window=2, propagate=False), seed=0
            )
        messages = " ".join(record.message for record in caplog.records)
        assert "sparsifier nnz" in messages
        assert "done in" in messages


class TestConfigureLogging:
    @pytest.fixture(autouse=True)
    def _cleanup_handlers(self):
        import logging

        root = logging.getLogger("repro")
        before_level = root.level
        yield
        root.setLevel(before_level)
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)

    def test_explicit_level_wins(self, monkeypatch):
        import logging

        from repro.utils.log import configure_logging

        monkeypatch.setenv("REPRO_LOG", "ERROR")
        root = configure_logging("DEBUG")
        assert root.level == logging.DEBUG

    def test_env_var_fallback(self, monkeypatch):
        import logging

        from repro.utils.log import configure_logging

        monkeypatch.setenv("REPRO_LOG", "warning")
        assert configure_logging().level == logging.WARNING

    def test_default_is_info(self, monkeypatch):
        import logging

        from repro.utils.log import configure_logging

        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert configure_logging().level == logging.INFO

    def test_idempotent_handler(self):
        import logging

        from repro.utils.log import configure_logging

        root = logging.getLogger("repro")
        before = len(root.handlers)
        configure_logging("INFO")
        configure_logging("DEBUG")
        configure_logging("10")
        ours = [
            h for h in root.handlers if getattr(h, "_repro_configured", False)
        ]
        assert len(ours) == 1
        assert len(root.handlers) == before + 1
        assert root.level == logging.DEBUG

    def test_unknown_level_raises(self):
        from repro.utils.log import configure_logging

        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("LOUD")

    def test_messages_reach_stream(self):
        import io

        from repro.utils.log import configure_logging, get_logger

        buf = io.StringIO()
        configure_logging("DEBUG", stream=buf)
        get_logger("repro.test_stream").debug("hello from the pipeline")
        assert "hello from the pipeline" in buf.getvalue()


class TestFileIO:
    """Crash-safe write/append primitives (repro.utils.fileio)."""

    def test_atomic_write_creates_parents(self, tmp_path):
        from repro.utils.fileio import atomic_write_text

        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"

    def test_atomic_write_json_roundtrip(self, tmp_path):
        import json

        from repro.utils.fileio import atomic_write_json

        path = tmp_path / "out.json"
        atomic_write_json(path, {"k": [1, 2]}, indent=2)
        assert json.loads(path.read_text()) == {"k": [1, 2]}

    def test_failed_write_preserves_previous_file(self, tmp_path):
        from repro.utils.fileio import atomic_write_text, atomic_write_with

        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")

        def exploding_writer(out):
            out.write("partial")
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            atomic_write_with(path, exploding_writer)
        # The target still holds the previous payload, and no temp litter.
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_append_line_creates_parents_and_adds_newline(self, tmp_path):
        from repro.utils.fileio import append_line

        path = tmp_path / "deep" / "runs.jsonl"
        append_line(path, "one")
        append_line(path, "two\n")
        assert path.read_text() == "one\ntwo\n"
