"""Tests for the statistical regression detector and the ``lightne regress`` gate."""

from __future__ import annotations

import time

import pytest

from repro.embedding.registry import run_method
from repro.graph.generators import dcsbm_graph
from repro.cli import main as cli_main
from repro.telemetry import ledger
from repro.telemetry.ledger import RunLedger, RunRecord
from repro.telemetry.regression import (
    compare,
    detect,
    mad,
    median,
    select_baseline,
)

ENV_A = {"cpu_model": "cpu-a", "cpu_count": 8, "numpy": "2.0"}
ENV_B = {"cpu_model": "cpu-b", "cpu_count": 64, "numpy": "2.0"}


def make_record(
    *,
    method="lightne",
    dataset="ds",
    stages=None,
    env=ENV_A,
    params=None,
    seed=0,
    quality=None,
):
    stages = dict(stages or {"sparsifier": 1.0, "svd": 2.0})
    return RunRecord(
        method=method,
        dataset=dataset,
        params=dict(params or {"dimension": 8}),
        stages=stages,
        total_s=sum(v for v in stages.values() if isinstance(v, (int, float))),
        seed=seed,
        env=dict(env),
        quality=dict(quality or {}),
    )


class TestStatistics:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_mad(self):
        assert mad([1.0, 2.0, 3.0]) == 1.0
        assert mad([5.0, 5.0, 5.0]) == 0.0


class TestBaselineSelection:
    def test_key_and_fingerprint_match(self):
        base = [make_record() for _ in range(3)]
        other_method = make_record(method="netsmf")
        other_env = make_record(env=ENV_B)
        candidate = make_record()
        pool = base + [other_method, other_env]
        selected, matched = select_baseline(pool, candidate)
        assert matched is True
        assert selected == base

    def test_fingerprint_fallback(self):
        """No same-fingerprint baseline -> fall back, flag the mismatch."""
        pool = [make_record(env=ENV_B) for _ in range(2)]
        candidate = make_record(env=ENV_A)
        selected, matched = select_baseline(pool, candidate)
        assert matched is False
        assert len(selected) == 2

    def test_candidate_excluded_from_baseline(self):
        candidate = make_record()
        selected, _ = select_baseline([candidate], candidate)
        assert selected == []


class TestCompare:
    def test_identical_runs_pass(self):
        baseline = [make_record() for _ in range(3)]
        report = compare(baseline, [make_record()])
        assert report.ok
        assert report.regressions == []

    def test_slowed_stage_fails(self):
        baseline = [
            make_record(stages={"sparsifier": 1.0, "svd": 2.0 + 0.01 * i})
            for i in range(4)
        ]
        slow = make_record(stages={"sparsifier": 1.0, "svd": 4.0})
        report = compare(baseline, [slow])
        assert not report.ok
        assert [d.stage for d in report.regressions] == ["svd", "total"]
        row = report.regressions[0].as_row()
        assert row["verdict"] == "REGRESSED"
        assert row["delta_%"] > 90

    def test_speedup_never_flags(self):
        baseline = [make_record() for _ in range(3)]
        fast = make_record(stages={"sparsifier": 0.2, "svd": 0.5})
        report = compare(baseline, [fast])
        assert report.ok

    def test_empty_baseline_warns_not_gates(self):
        report = compare([], [make_record()])
        assert report.ok
        assert any("no matching baseline" in w for w in report.warnings)

    def test_single_sample_baseline_no_mad(self):
        """One baseline run: MAD is undefined, tolerance checks still gate."""
        baseline = [make_record(stages={"svd": 1.0})]
        slow = make_record(stages={"svd": 2.0})
        report = compare(baseline, [slow])
        (delta,) = [d for d in report.deltas if d.stage == "svd"]
        assert delta.baseline_mad is None
        assert delta.z_score is None
        assert delta.regressed

    def test_zero_mad_baseline_gates_on_tolerance(self):
        baseline = [make_record(stages={"svd": 1.0}) for _ in range(3)]
        slow = make_record(stages={"svd": 2.0})
        report = compare(baseline, [slow])
        assert not report.ok

    def test_within_noise_z_guard(self):
        """A wide, noisy baseline absorbs a nominally over-tolerance delta."""
        baseline = [
            make_record(stages={"svd": v})
            for v in (1.0, 2.0, 3.0, 4.0, 5.0)  # median 3, MAD 1
        ]
        cand = make_record(stages={"svd": 4.2})  # +40 % but z ~ 0.8
        report = compare(baseline, [cand])
        (delta,) = [d for d in report.deltas if d.stage == "svd"]
        assert not delta.regressed
        assert delta.note == "within noise (z)"

    def test_nan_and_missing_timings(self):
        baseline = [
            make_record(stages={"svd": 1.0, "sparsifier": float("nan")}),
            make_record(stages={"svd": 1.1}),
        ]
        cand = make_record(stages={"svd": 1.0, "extra": 0.5})
        report = compare(baseline, [cand])
        # The unseen stage and the NaN-only baseline stage never gate by
        # themselves; only "total" may trip (the new stage adds real time).
        assert all(d.stage == "total" for d in report.regressions)
        notes = {d.stage: d.note for d in report.deltas}
        assert notes.get("extra") == "new stage (no baseline)"
        # NaN-only baseline stage + missing candidate value -> no crash.
        sparsifier = [d for d in report.deltas if d.stage == "sparsifier"]
        assert sparsifier == [] or not sparsifier[0].regressed

    def test_fingerprint_mismatch_warns_never_fails(self):
        baseline = [make_record(env=ENV_B) for _ in range(3)]
        slow = make_record(stages={"sparsifier": 9.0, "svd": 9.0})
        report = compare(baseline, [slow], fingerprint_matched=False)
        assert report.regressions  # the slowdown is still reported...
        assert report.ok           # ...but a mismatched env cannot gate
        assert any("fingerprint" in w for w in report.warnings)

    def test_stage_tolerance_override(self):
        baseline = [make_record(stages={"svd": 1.0}) for _ in range(3)]
        cand = make_record(stages={"svd": 1.5})
        strict = compare(baseline, [cand], tolerance=0.25)
        loose = compare(
            baseline, [cand], tolerance=0.25,
            stage_tolerances={"svd": 1.0, "total": 1.0},
        )
        assert not strict.ok
        assert loose.ok

    def test_min_seconds_floor(self):
        baseline = [make_record(stages={"svd": 0.001}) for _ in range(3)]
        cand = make_record(stages={"svd": 0.004})  # 4x slower but microscopic
        report = compare(baseline, [cand], min_seconds=0.005)
        (delta,) = [d for d in report.deltas if d.stage == "svd"]
        assert delta.note == "below min_seconds"
        assert report.ok or "total" in [d.stage for d in report.regressions]


class TestDetect:
    def test_groups_and_candidate_split(self):
        records = [make_record() for _ in range(4)]
        records += [make_record(method="netsmf") for _ in range(2)]
        reports = detect(records)
        assert len(reports) == 2
        by_method = {r.method: r for r in reports}
        assert by_method["lightne"].baseline_count == 3
        assert by_method["netsmf"].baseline_count == 1

    def test_explicit_baseline_ledger(self):
        baseline = [make_record() for _ in range(3)]
        slow = make_record(stages={"sparsifier": 5.0, "svd": 9.0})
        reports = detect([slow], baseline_records=baseline)
        assert len(reports) == 1
        assert not reports[0].ok


class TestQualityGate:
    """Quality scores (micro-F1, MRR, ...) gate on absolute drops."""

    def test_drop_beyond_slack_fails(self):
        baseline = [make_record(quality={"micro_f1": 0.40}) for _ in range(3)]
        worse = make_record(quality={"micro_f1": 0.35})
        report = compare(baseline, [worse], quality_slack=0.02)
        assert not report.ok
        assert [d.stage for d in report.quality_regressions] == [
            "quality.micro_f1"
        ]

    def test_within_slack_passes(self):
        baseline = [make_record(quality={"micro_f1": 0.40}) for _ in range(3)]
        slightly = make_record(quality={"micro_f1": 0.39})
        report = compare(baseline, [slightly], quality_slack=0.02)
        assert report.ok
        (delta,) = [
            d for d in report.deltas if d.stage == "quality.micro_f1"
        ]
        assert not delta.regressed
        assert delta.note == "within slack"

    def test_improvement_never_flags(self):
        baseline = [make_record(quality={"micro_f1": 0.40}) for _ in range(3)]
        better = make_record(quality={"micro_f1": 0.55})
        assert compare(baseline, [better]).ok

    def test_gates_even_on_fingerprint_mismatch(self):
        """Scores are hardware-independent: a drop fails even warn-only."""
        baseline = [
            make_record(env=ENV_B, quality={"micro_f1": 0.40})
            for _ in range(3)
        ]
        worse = make_record(env=ENV_A, quality={"micro_f1": 0.30})
        report = compare(
            baseline, [worse], fingerprint_matched=False, quality_slack=0.02
        )
        assert not report.ok
        assert report.quality_regressions

    def test_timing_regression_still_warn_only_on_mismatch(self):
        """Quality gating must not drag timing rows into the gate."""
        baseline = [
            make_record(env=ENV_B, quality={"micro_f1": 0.40})
            for _ in range(3)
        ]
        slow = make_record(
            env=ENV_A,
            stages={"sparsifier": 9.0, "svd": 9.0},
            quality={"micro_f1": 0.40},
        )
        report = compare(baseline, [slow], fingerprint_matched=False)
        assert report.regressions  # timing rows reported...
        assert not report.quality_regressions
        assert report.ok           # ...but never gated cross-hardware

    def test_new_and_missing_metrics_never_gate(self):
        baseline = [make_record(quality={"micro_f1": 0.40}) for _ in range(3)]
        cand = make_record(quality={"mrr": 0.60})
        report = compare(baseline, [cand])
        assert report.ok
        notes = {d.stage: d.note for d in report.deltas}
        assert notes["quality.mrr"] == "new metric (no baseline)"
        assert notes["quality.micro_f1"] == "missing in candidate"

    def test_quality_slack_flag_in_cli(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        led = RunLedger(str(path))
        for _ in range(3):
            led.append(make_record(quality={"micro_f1": 0.40}))
        led.append(make_record(quality={"micro_f1": 0.35}))
        assert cli_main(["regress", "--ledger", str(path)]) == 1
        out = capsys.readouterr().out
        assert "quality drops: quality.micro_f1" in out
        # A looser slack absorbs the same drop.
        assert cli_main(
            ["regress", "--ledger", str(path), "--quality-slack", "0.1"]
        ) == 0

    def test_filters(self):
        records = [make_record(), make_record(method="netsmf")]
        assert len(detect(records, method="netsmf")) == 1
        assert detect(records, dataset="other") == []


class TestCandidateRuns:
    """``candidate_runs=0`` used to make every run a candidate (``group[-0:]``
    is the whole group): no baseline anywhere, every group warn-only, gate
    passed.  A count below one is now rejected at both doors."""

    @pytest.mark.parametrize("count", [0, -1])
    def test_detect_rejects_non_positive_counts(self, count):
        records = [make_record() for _ in range(3)]
        with pytest.raises(ValueError, match="candidate_runs"):
            detect(records, candidate_runs=count)
        with pytest.raises(ValueError, match="candidate_runs"):
            detect(records[:1], candidate_runs=count)  # was a bare IndexError

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_flag_is_an_argparse_error(self, tmp_path, capsys, count):
        path = tmp_path / "runs.jsonl"
        led = RunLedger(str(path))
        for _ in range(3):
            led.append(make_record())
        led.append(make_record(stages={"sparsifier": 1.0, "svd": 5.0}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["regress", "--ledger", str(path), "--candidate-runs", count])
        assert exc.value.code == 2
        assert "--candidate-runs" in capsys.readouterr().err
        # The regression it used to wave through still fails the gate.
        assert cli_main(["regress", "--ledger", str(path)]) == 1


class TestRegressCLI:
    def _write(self, path, records):
        book = RunLedger(path)
        for record in records:
            book.append(record)

    def test_missing_ledger_exits_zero(self, tmp_path, capsys):
        code = cli_main(["regress", "--ledger", str(tmp_path / "absent.jsonl")])
        assert code == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_identical_runs_pass(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._write(path, [make_record() for _ in range(3)])
        code = cli_main(["regress", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "regression gate: passed" in out

    def test_slowed_stage_fails_with_delta_table(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._write(
            path,
            [make_record() for _ in range(3)]
            + [make_record(stages={"sparsifier": 1.0, "svd": 5.0})],
        )
        code = cli_main(["regress", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "delta_%" in out          # the per-stage delta table
        assert "regression gate: FAILED" in out

    def test_stage_tolerance_flag(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._write(
            path,
            [make_record(stages={"svd": 1.0}) for _ in range(3)]
            + [make_record(stages={"svd": 1.6})],
        )
        assert cli_main(["regress", "--ledger", str(path)]) == 1
        capsys.readouterr()
        assert (
            cli_main(
                ["regress", "--ledger", str(path),
                 "--stage-tolerance", "svd=2.0,total=2.0"]
            )
            == 0
        )

    def test_bad_stage_tolerance_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["regress", "--ledger", str(tmp_path), "--stage-tolerance", "svd"]
            )


class TestEndToEndInjectedSleep:
    """Acceptance shape: identical runs pass, an injected sleep fails."""

    @pytest.fixture
    def graph(self):
        g, _ = dcsbm_graph(150, 3, avg_degree=8, seed=7)
        return g

    def test_sleep_in_svd_stage_fails_gate(
        self, graph, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=path, dataset="gate_ds"):
            for _ in range(2):
                run_method("lightne", graph, seed=0, dimension=8, window=3)
        assert cli_main(
            ["regress", "--ledger", str(path), "--abs-slack", "0.05"]
        ) == 0
        capsys.readouterr()

        # Inject a real sleep into the svd stage and record a third run.
        import repro.embedding.lightne as lightne_mod

        original = lightne_mod.factorize

        def slow_svd(*args, **kwargs):
            time.sleep(0.4)
            return original(*args, **kwargs)

        monkeypatch.setattr(lightne_mod, "factorize", slow_svd)
        with ledger.enabled_scope(path=path, dataset="gate_ds"):
            run_method("lightne", graph, seed=0, dimension=8, window=3)

        code = cli_main(["regress", "--ledger", str(path), "--abs-slack", "0.05"])
        out = capsys.readouterr().out
        assert code == 1
        assert "svd" in out and "REGRESSED" in out
