"""Tests for the run ledger: records, atomic append, pipeline wiring."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.embedding.registry import get_method, run_method
from repro.graph.generators import dcsbm_graph
from repro.telemetry import environment, ledger
from repro.telemetry.ledger import (
    RunLedger,
    RunRecord,
    build_record,
    find_run,
    params_hash,
)


@pytest.fixture
def graph():
    g, _ = dcsbm_graph(150, 3, avg_degree=8, seed=7)
    return g


@pytest.fixture(autouse=True)
def _clean_ledger_state():
    """Every test starts with recording off and no dataset context."""
    ledger.disable()
    ledger.set_dataset(None)
    yield
    ledger.disable()
    ledger.set_dataset(None)


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_shape(self):
        env = environment.collect_fingerprint()
        for key in (
            "cpu_model", "cpu_count", "platform", "python",
            "numpy", "scipy", "blas", "git_sha",
        ):
            assert key in env
        assert env["cpu_count"] >= 1
        assert env["numpy"]

    def test_cached(self):
        assert environment.collect_fingerprint() is environment.collect_fingerprint()

    def test_key_excludes_git_sha(self):
        env = dict(environment.collect_fingerprint())
        key_a = environment.fingerprint_key(env)
        env["git_sha"] = "0" * 40
        assert environment.fingerprint_key(env) == key_a

    def test_records_blas_threads_outside_the_key(self):
        from repro.utils.parallel import blas_threads

        env = dict(environment.collect_fingerprint())
        if blas_threads() is None:
            assert env["blas_threads"] is None
        else:  # the count when the fingerprint was first taken
            assert env["blas_threads"] >= 1
        key_a = environment.fingerprint_key(env)
        env["blas_threads"] = 1 if env["blas_threads"] != 1 else 2
        assert environment.fingerprint_key(env) == key_a

    def test_key_changes_with_hardware(self):
        env = dict(environment.collect_fingerprint())
        key_a = environment.fingerprint_key(env)
        env["cpu_model"] = "Imaginary CPU 9000"
        assert environment.fingerprint_key(env) != key_a

    def test_record_env_is_the_fingerprint(self, graph):
        result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        record = build_record(result, dataset="d", seed=0)
        assert record.env == environment.collect_fingerprint()


# ---------------------------------------------------------------------------
# RunRecord / schema
# ---------------------------------------------------------------------------


class TestRunRecord:
    def test_params_hash_order_independent(self):
        assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
        assert params_hash({"a": 1}) != params_hash({"a": 2})

    def test_roundtrip(self):
        record = RunRecord(
            method="lightne",
            dataset="ds",
            params={"dimension": 8},
            stages={"sparsifier": 0.5, "svd": 1.0},
            total_s=1.5,
            seed=3,
            env=dict(environment.collect_fingerprint()),
            quality={"micro@0.1": 31.2},
        )
        back = RunRecord.from_dict(json.loads(record.to_json()))
        assert back.to_dict() == record.to_dict()
        assert back.key == record.key

    def test_schema_valid(self):
        # The fields the readers rely on, with the types they check.
        record = RunRecord(method="m", dataset="d", env={"cpu_model": "x"})
        line = json.loads(record.to_json())
        assert line["schema"] == ledger.SCHEMA_VERSION
        assert line["run_id"] and line["params_hash"]
        assert isinstance(line["stages"], dict)
        assert isinstance(line["params"], dict)
        assert isinstance(line["total_s"], float)

    def test_backend_recorded_without_telemetry(self):
        from repro import telemetry
        from repro.embedding.base import EmbeddingResult

        with telemetry.run_scope("lightne") as root:
            with telemetry.stage("sparsifier"):
                pass
        result = EmbeddingResult(
            vectors=np.zeros((2, 2)), method="lightne", run=root,
            info={"params": {"backend": None, "workers": 2}},
        )
        record = build_record(result, dataset="d", seed=0)
        assert record.extra["backend"] == "thread"
        assert record.extra["resolved_workers"] == 2


# ---------------------------------------------------------------------------
# RunLedger file behaviour
# ---------------------------------------------------------------------------


class TestRunLedger:
    def test_append_creates_parents_and_reads_back(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "runs.jsonl"
        book = RunLedger(path)
        book.append(RunRecord(method="m", dataset="d", total_s=1.0))
        book.append(RunRecord(method="m", dataset="d", total_s=2.0))
        records = book.records()
        assert [r.total_s for r in records] == [1.0, 2.0]

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunLedger(path).append(RunRecord(method="m", dataset="d"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write("[1, 2, 3]\n")
        RunLedger(path).append(RunRecord(method="m2", dataset="d"))
        records = RunLedger(path).records()
        assert [r.method for r in records] == ["m", "m2"]

    @pytest.mark.parametrize(
        "line",
        [
            {"method": "lightne", "stages": "oops"},
            {"method": "lightne", "total_s": "abc"},
            {"method": "lightne", "stages": [1]},
            {"method": "lightne", "stages": {"svd": "abc"}},
            {"method": "lightne", "metrics": {"counters": {"spmm.calls": "x"}}},
        ],
        ids=[
            "stages-str", "total-str", "stages-list", "stage-seconds-str",
            "counter-str",
        ],
    )
    def test_wrong_typed_field_skipped_by_both_readers(
        self, tmp_path, line, capsys, caplog
    ):
        """A line that parses as JSON but holds a wrong-typed field is
        skipped and logged like unparseable JSON; ``report`` and ``audit``
        still load the valid run after it."""
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(line) + "\n")
        RunLedger(path).append(RunRecord(
            method="good", dataset="d", digests={"svd": "abc"}
        ))
        with caplog.at_level("WARNING", logger=ledger.logger.name):
            records = RunLedger(path).records()
        assert [r.method for r in records] == ["good"]
        assert "skipping malformed line 1" in caplog.text
        assert cli_main(["report", "--ledger", str(path)]) == 0
        assert f"ledger {path}: 1 runs" in capsys.readouterr().out
        audit_args = ["audit", "--ledger", str(path), "1", "1", "--strict"]
        assert cli_main(audit_args) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").records() == []

    def test_readers_default_to_the_active_path(self, tmp_path, monkeypatch, capsys):
        """``report`` reads where ``embed --ledger`` writes
        (``REPRO_LEDGER_PATH``), as ``audit`` does, when no ``--ledger``
        is given."""
        path = tmp_path / "env_runs.jsonl"
        book = RunLedger(path)
        for score in (0.40, 0.30):
            book.append(RunRecord(
                method="m", dataset="env_only", total_s=1.0,
                quality={"micro_f1": score},
            ))
        monkeypatch.setenv(ledger.ENV_PATH, str(path))
        assert cli_main(["report"]) == 0
        assert "env_only" in capsys.readouterr().out

    def test_records_filter(self, tmp_path):
        book = RunLedger(tmp_path / "runs.jsonl")
        for method, dataset in (("m", "d"), ("m2", "d"), ("m", "d2")):
            book.append(RunRecord(method=method, dataset=dataset))
        assert len(book.records()) == 3
        assert [r.dataset for r in book.records(method="m")] == ["d", "d2"]
        assert [r.method for r in book.records(dataset="d")] == ["m", "m2"]
        assert book.records(method="m2", dataset="d2") == []


# Short ids over a tiny alphabet: all-digit ids that are also valid indices
# and prefixes shared by several runs are the common case, not the rare one.
_run_ids = st.lists(st.text(alphabet="12a", min_size=1, max_size=3), max_size=6)


class TestFindRun:
    """One selector behind ``lightne audit RUN RUN`` and ``report --diff``."""

    @given(ids=_run_ids, spec=st.text(alphabet="-012a", max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stated_rule(self, ids, spec):
        records = [RunRecord(method="m", dataset="d", run_id=i) for i in ids]
        n = len(records)
        try:
            index = int(spec)
        except ValueError:
            index = None
        prefixed = [r for r in records if spec and r.run_id.startswith(spec)]
        if index is not None and 1 <= index <= n:
            expected = records[index - 1]    # a position beats an equal id
        elif index is not None and -n <= index <= -1:
            expected = records[index]
        elif prefixed:
            expected = prefixed[-1]          # ambiguous prefix: newest match
        else:
            with pytest.raises(SystemExit) as exc:
                find_run(records, spec)
            if index is None:
                assert repr(spec) in str(exc.value)
            elif index != 0:
                assert f"ledger has {n} runs" in str(exc.value)
            return
        assert find_run(records, spec) is expected


# ---------------------------------------------------------------------------
# Pipeline wiring (run_pipeline -> maybe_record)
# ---------------------------------------------------------------------------


class TestPipelineWiring:
    def test_disabled_by_default(self, graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger.set_dataset("ds")
        run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert not path.exists()

    def test_enabled_scope_records(self, graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=path, dataset="scoped"):
            result = run_method("lightne", graph, seed=5, dimension=8, window=3)
        assert not ledger.is_enabled()  # scope restored
        (record,) = RunLedger(path).records()
        assert record.method == "lightne"
        assert record.dataset == "scoped"
        assert record.seed == 5
        assert record.params == result.info["params"]
        assert record.params_hash == params_hash(result.info["params"])
        assert record.fingerprint == environment.fingerprint_key()
        assert record.total_s == pytest.approx(result.timer.total)

    def test_numpy_integer_seed_is_recorded(self, graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=path, dataset="ds"):
            run_method("lightne", graph, seed=np.int64(7), dimension=8, window=3)
        (record,) = RunLedger(path).records()
        assert record.seed == 7 and type(record.seed) is int
        assert json.loads(path.read_text())["seed"] == 7

    def test_hand_built_result_records_no_run_and_only_integer_seeds(self):
        from repro.embedding.base import EmbeddingResult

        result = EmbeddingResult(vectors=np.zeros((2, 2)), method="lightne")
        record = build_record(result, seed=np.uint32(3))
        assert record.seed == 3
        assert record.stages == record.metrics == record.health == {}
        assert record.digests == {} and record.total_s == 0.0
        assert build_record(result, seed=True).seed is None
        assert build_record(result, seed=np.random.default_rng(0)).seed is None

    def test_env_variable_enables(self, graph, tmp_path, monkeypatch):
        path = tmp_path / "envruns.jsonl"
        monkeypatch.setenv(ledger.ENV_ENABLE, "1")
        monkeypatch.setenv(ledger.ENV_PATH, str(path))
        ledger.set_dataset("env_ds")
        run_method("lightne", graph, seed=0, dimension=8, window=3)
        (record,) = RunLedger(path).records()
        assert record.dataset == "env_ds"

    def test_stage_order_matches_registry(self, graph, tmp_path):
        """Ledger stage order is the registry's Table-5 order, not execution order."""
        with ledger.enabled_scope(path=tmp_path / "r.jsonl", dataset="ds"):
            run_method("lightne", graph, seed=0, dimension=8, window=3)
        (record,) = RunLedger(tmp_path / "r.jsonl").records()
        declared = list(get_method("lightne").stages)
        recorded = [s for s in record.stages if s in declared]
        assert recorded == declared

    def test_peak_rss_is_the_os_lifetime_peak_at_record_time(self, graph, tmp_path):
        """Non-decreasing across the runs of one process, and at most the
        process's own peak."""
        from repro import telemetry

        path = tmp_path / "runs.jsonl"
        telemetry.enable()
        try:
            with ledger.enabled_scope(path=path, dataset="ds"):
                for _ in range(2):
                    run_method("lightne", graph, seed=0, dimension=8, window=3)
        finally:
            telemetry.disable()
        first, second = (r.peak_rss_bytes for r in RunLedger(path).records())
        assert (1 << 20) < first <= second <= telemetry.peak_rss_bytes()

    def test_record_failure_does_not_break_run(self, graph, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        # Path whose parent is a regular file -> append must fail internally.
        with ledger.enabled_scope(path=blocker / "runs.jsonl", dataset="ds"):
            result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert result.vectors.shape == (graph.num_vertices, 8)

    def test_record_result_with_quality(self, graph, tmp_path):
        result = run_method("lightne", graph, seed=0, dimension=8, window=3)
        record = ledger.record_result(
            result,
            path=tmp_path / "q.jsonl",
            dataset="ds",
            quality={"micro@0.1": 30.5},
            context="test",
        )
        (back,) = RunLedger(tmp_path / "q.jsonl").records()
        assert back.quality == {"micro@0.1": 30.5}
        assert back.run_id == record.run_id
        assert back.context == "test"


# ---------------------------------------------------------------------------
# StageTable.ordered_stages (the stable Table-5 ordering)
# ---------------------------------------------------------------------------


class TestOrderedStages:
    def test_declared_order_wins(self, stage_table):
        timer = stage_table(("propagation", 1.0), ("sparsifier", 2.0), ("svd", 3.0))
        ordered = timer.ordered_stages(("sparsifier", "svd", "propagation"))
        assert list(ordered) == ["sparsifier", "svd", "propagation"]
        assert ordered["sparsifier"] == 2.0

    def test_extra_stages_appended(self, stage_table):
        timer = stage_table(("warmup", 0.1), ("svd", 3.0))
        ordered = timer.ordered_stages(("sparsifier", "svd"))
        assert list(ordered) == ["svd", "warmup"]

    def test_empty_order_keeps_insertion(self, stage_table):
        timer = stage_table(("b", 1.0), ("a", 2.0))
        assert list(timer.ordered_stages()) == ["b", "a"]
