"""Tests for the perf-trajectory report (``lightne report``)."""

from __future__ import annotations

import re
import statistics

from repro.cli import main as cli_main
from repro.telemetry.ledger import RunLedger, RunRecord
from repro.telemetry.report import (
    format_run,
    metrics_diff,
    sparkline,
    trajectory_rows,
)
from repro.utils import format_table


def make_record(total=1.0, stages=None, metrics=None, quality=None, **kw):
    stages = dict(stages or {"sparsifier": 0.4, "svd": 0.6})
    defaults = dict(
        method="lightne",
        dataset="ds",
        params={"dimension": 8},
        stages=stages,
        total_s=total,
        env={"cpu_model": "cpu-a", "cpu_count": 4, "numpy": "2.0"},
        metrics=dict(metrics or {}),
        quality=dict(quality or {}),
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestTextBuildingBlocks:
    def test_sparkline_shape(self):
        line = sparkline([1.0, 2.0, 3.0, 2.0])
        assert len(line) == 4
        assert line[0] != line[2]

    def test_sparkline_flat_and_empty(self):
        assert sparkline([5.0, 5.0]) == "▁▁"
        assert sparkline([]) == ""

    def test_format_rows_alignment(self):
        text = format_table([{"a": 1, "b": None}, {"a": 22, "b": 0.5}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "NA" in lines[2]

    def test_format_run_contains_stages_and_quality(self):
        record = make_record(quality={"micro@0.1": 30.1})
        text = format_run(record)
        assert "sparsifier" in text
        assert "total" in text
        assert "micro@0.1" in text

    def test_trajectory_rows_grouping(self):
        records = [make_record(total=t) for t in (1.0, 1.2, 0.9)]
        records.append(make_record(method="netsmf", total=2.0))
        rows = trajectory_rows(records)
        assert len(rows) == 2
        lightne = [r for r in rows if r["method"] == "lightne"][0]
        assert lightne["runs"] == 3
        assert len(lightne["trend"]) == 3

    def test_trajectory_median_is_the_statistics_median(self):
        # Even run counts used to show the upper middle value.
        totals = [1.0, 3.0, 0.7, 2.2]
        (row,) = trajectory_rows([make_record(total=t) for t in totals])
        assert row["median_s"] == round(statistics.median(totals), 4) == 1.6

    def test_trajectory_rows_quality_columns(self):
        records = [
            make_record(quality={"micro_f1": v}) for v in (0.38, 0.40, 0.41)
        ]
        records.append(make_record(method="netsmf"))  # no quality recorded
        rows = {r["method"]: r for r in trajectory_rows(records)}
        assert rows["lightne"]["quality"] == "micro_f1=0.41"
        assert len(rows["lightne"]["quality_trend"]) == 3
        assert rows["netsmf"]["quality"] is None
        assert rows["netsmf"]["quality_trend"] == ""

    def test_quality_trend_skips_runs_without_the_metric(self):
        records = [
            make_record(quality={"micro_f1": 0.38}),
            make_record(),  # a perf-only run in the same group
            make_record(quality={"micro_f1": 0.40}),
        ]
        (row,) = trajectory_rows(records)
        assert len(row["quality_trend"]) == 2


class TestMetricsDiff:
    def test_counter_gauge_and_stage_rows(self):
        a = make_record(
            metrics={
                "counters": {"spmm.calls": 10},
                "gauges": {"load": {"value": 0.5, "max": 0.6}},
            }
        )
        b = make_record(
            metrics={
                "counters": {"spmm.calls": 14},
                "gauges": {"load": {"value": 0.7, "max": 0.7}},
            },
            stages={"sparsifier": 0.5, "svd": 0.6},
        )
        rows = metrics_diff(a, b)
        by_metric = {(r["metric"], r["kind"]): r for r in rows}
        assert by_metric[("spmm.calls", "counter")]["delta"] == 4
        assert by_metric[("sparsifier", "stage_s")]["delta"] == 0.1
        # A gauge block (ledger lines from before the counters-only
        # registry) is carried, not diffed.
        assert {r["kind"] for r in rows} == {"counter", "stage_s"}
        assert ("load", "gauge") not in by_metric


# The metrics block of a ledger line written while the registry still had
# gauges and histograms (benchmarks/results/runs.jsonl, line 18).
OLD_LINE_METRICS = {
    "counters": {
        "hashtable.distinct_keys": 26813.0, "sparsifier.batches": 1.0,
        "sparsifier.draws": 46150.0, "sparsifier.walk_samples": 34469.0,
        "spmm.bytes": 13671340.0, "spmm.calls": 25.0,
        "spmm.flops": 33751280.0, "svd.operator_passes": 6.0,
    },
    "gauges": {
        "hashtable.shared.load_factor": {"value": 0.4091339111328125,
                                         "max": 0.4091339111328125},
        "hashtable.table_bytes": {"value": 1048576.0, "max": 1048576.0},
        "sparsifier.nnz": {"value": 26813.0, "max": 26813.0},
        "spmm.gflops": {"value": 4.777134817456218, "max": 6.421303245402692},
    },
    "histograms": {
        "spmm.block_seconds": {"count": 25, "sum": 0.006921188001797418,
                               "mean": 0.0002768475200718967,
                               "min": 0.00010746299994934816,
                               "max": 0.0014153770007396815},
        "svd.iteration_seconds": {"count": 2, "sum": 0.006705943998895236,
                                  "mean": 0.003352971999447618,
                                  "min": 0.0026885819988820003,
                                  "max": 0.004017362000013236},
    },
}


class TestOldLedgerLines:
    def test_gauge_and_histogram_blocks_load_diff_and_render(
        self, tmp_path, capsys
    ):
        old = make_record(metrics=OLD_LINE_METRICS)
        new = make_record(
            metrics={"counters": {"spmm.calls": 19.0, "svd.operator_passes": 6.0}}
        )
        path = tmp_path / "runs.jsonl"
        book = RunLedger(path)
        book.append(old)
        book.append(new)
        loaded, current = book.records()
        assert loaded.metrics == OLD_LINE_METRICS
        rows = metrics_diff(loaded, current)
        assert {r["kind"] for r in rows} == {"counter", "stage_s"}
        by_metric = {r["metric"]: r for r in rows}
        assert by_metric["spmm.calls"]["delta"] == -6.0
        assert "sparsifier.nnz" not in by_metric
        assert cli_main(
            ["report", "--ledger", str(path), "--diff", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics diff 1 -> 2" in out and "spmm.calls" in out


class TestReportCLI:
    def _ledger(self, tmp_path, records):
        path = tmp_path / "runs.jsonl"
        book = RunLedger(path)
        for record in records:
            book.append(record)
        return path

    def test_terminal_output(self, tmp_path, capsys):
        path = self._ledger(
            tmp_path, [make_record(total=t) for t in (1.0, 1.3, 1.1)]
        )
        code = cli_main(["report", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trajectories" in out
        assert "latest run" in out

    def test_diff_by_run_id_prefix(self, tmp_path, capsys):
        a = make_record(metrics={"counters": {"c": 1}, "gauges": {}})
        b = make_record(metrics={"counters": {"c": 3}, "gauges": {}})
        path = self._ledger(tmp_path, [a, b])
        code = cli_main(
            ["report", "--ledger", str(path),
             "--diff", a.run_id[:6], b.run_id[:6]]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics diff" in out

    def test_empty_ledger_message(self, tmp_path, capsys):
        code = cli_main(["report", "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_diff_and_audit_address_the_same_runs(self, tmp_path, capsys):
        """``report --diff A B`` and ``audit A B`` share one run selector."""
        ids = ("aaaa00000000", "3bbb00000000", "cccc00000000", "aaaa11111111")
        # Each run's ``run`` counter is its index: the diff row names the runs.
        records = [
            make_record(
                digests={"svd": f"d{i}"}, run_id=run_id,
                metrics={"counters": {"run": i}},
            )
            for i, run_id in enumerate(ids)
        ]
        path = self._ledger(tmp_path, records)
        for spec_a, spec_b, id_a, id_b in (
            ("1", "-1", "aaaa00000000", "aaaa11111111"),
            ("3", "cccc", "cccc00000000", "cccc00000000"),   # index, not "3bbb"
            ("aaaa", "3b", "aaaa11111111", "3bbb00000000"),  # newest match
        ):
            assert cli_main(
                ["report", "--ledger", str(path), "--diff", spec_a, spec_b]
            ) == 0
            diff = capsys.readouterr().out.split("=== metrics diff")[1]
            ia, ib = ids.index(id_a), ids.index(id_b)
            row = rf"^run\s+counter\s+{ia}\s+{ib}\s+{ib - ia}\s*$"
            assert re.search(row, diff, re.M), diff
            assert cli_main(
                ["audit", "--ledger", str(path), spec_a, spec_b]
            ) == 0
            assert f"audit: {id_a} (a) vs {id_b} (b)" in capsys.readouterr().out
