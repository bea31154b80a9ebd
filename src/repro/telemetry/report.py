"""Perf-trajectory reports over the run ledger, rendered for the terminal.

Fed by :mod:`repro.telemetry.ledger` records, ``lightne report`` (mounted
by :func:`init_subparser`) prints per-run Table-5 stage breakdowns, unicode
sparkline trajectories per ``method × dataset`` group, and metrics diffs
between any two runs; the rows behind them are plain list-of-dict tables
printed through :func:`repro.utils.format_table`.  The span tree of a run
is not drawn here: ``--trace-out`` writes a Chrome trace that Perfetto
(https://ui.perfetto.dev) draws.

Nothing here imports the embedding stack; the report runs on any machine
that has the ledger file.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.telemetry.ledger import RunLedger, RunRecord, active_path, find_run
from repro.utils.table import format_table, key_union

SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# Plain-text building blocks
# ---------------------------------------------------------------------------


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of ``values`` (empty string for no data)."""
    finite = [float(v) for v in values if v is not None]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    if hi <= lo:
        return SPARK_CHARS[0] * len(finite)
    span = hi - lo
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1, int((v - lo) / span * len(SPARK_CHARS)))]
        for v in finite
    )


def _stamp(record: RunRecord) -> str:
    """Human-readable UTC timestamp for a record."""
    if not record.timestamp:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(record.timestamp))


def _stage_rows(record: RunRecord) -> List[Dict[str, object]]:
    """The Table-5 rows of one run: a row per stage, then the total."""
    rows: List[Dict[str, object]] = [
        {"stage": name, "seconds": round(float(secs), 4)}
        for name, secs in record.stages.items()
    ]
    rows.append({"stage": "total", "seconds": round(record.total_s, 4)})
    return rows


def format_run(record: RunRecord) -> str:
    """One run's Table-5 stage breakdown plus identity, as text."""
    lines = [
        f"run {record.run_id}  {record.method} × {record.dataset}  "
        f"[params {record.params_hash}]  {_stamp(record)}",
    ]
    sha = record.git_sha
    meta: List[str] = []
    if sha:
        meta.append(f"git {sha[:10]}")
    if record.seed is not None:
        meta.append(f"seed {record.seed}")
    if record.peak_rss_bytes:
        meta.append(f"peak RSS {record.peak_rss_bytes / (1 << 20):,.1f} MiB")
    if meta:
        lines.append("  " + "  ".join(meta))
    lines.append(format_table(_stage_rows(record)))
    if record.quality:
        lines.append(
            "  quality: "
            + ", ".join(f"{k}={v:g}" for k, v in record.quality.items())
        )
    return "\n".join(lines)


def group_records(
    records: Sequence[RunRecord],
) -> Dict[Tuple[str, str, str], List[RunRecord]]:
    """Ledger records grouped by ``method × dataset × params-hash``."""
    groups: Dict[Tuple[str, str, str], List[RunRecord]] = {}
    for record in records:
        groups.setdefault(record.key, []).append(record)
    return groups


def trajectory_rows(records: Sequence[RunRecord]) -> List[Dict[str, object]]:
    """One trajectory row per group: run count, latest total, time and
    quality sparklines (quality from the runs' ``quality`` ledger fields)."""
    rows: List[Dict[str, object]] = []
    groups = group_records(records)
    for key in sorted(groups):
        group = groups[key]
        totals = [r.total_s for r in group]
        row: Dict[str, object] = {
            "method": key[0],
            "dataset": key[1],
            "params": key[2][:8],
            "runs": len(group),
            "latest_s": round(totals[-1], 4),
            "median_s": round(statistics.median(totals), 4),
            "trend": sparkline(totals),
        }
        # The group's headline quality metric: the first one any run recorded.
        metric = next(iter(key_union(r.quality for r in group)), None)
        values = [float(r.quality[metric]) for r in group if metric in r.quality]
        row["quality"] = f"{metric}={values[-1]:.4g}" if values else None
        row["quality_trend"] = sparkline(values)
        rows.append(row)
    return rows


def metrics_diff(a: RunRecord, b: RunRecord) -> List[Dict[str, object]]:
    """Counter and stage-time deltas between two runs (``b`` relative to
    ``a``); ledger lines from before the counters-only registry may carry
    ``gauges`` / ``histograms`` blocks, which are not diffed."""
    rows: List[Dict[str, object]] = []
    for kind, side_a, side_b in (
        ("counter", a.metrics.get("counters", {}), b.metrics.get("counters", {})),
        ("stage_s", a.stages, b.stages),
    ):
        for name in sorted(set(side_a) | set(side_b)):
            va, vb = side_a.get(name), side_b.get(name)
            cells = [va, vb, None if va is None or vb is None else vb - va]
            if kind == "stage_s":
                cells = [None if v is None else round(float(v), 4) for v in cells]
            rows.append(
                {"metric": name, "kind": kind, "a": cells[0], "b": cells[1],
                 "delta": cells[2]}
            )
    return rows


# ---------------------------------------------------------------------------
# CLI: lightne report
# ---------------------------------------------------------------------------


def _run(args: argparse.Namespace) -> int:
    """Render the ledger to the terminal."""
    records = RunLedger(args.ledger).records(args.method, args.dataset)

    if not records:
        print(f"ledger {args.ledger}: no matching runs")
    else:
        print(f"ledger {args.ledger}: {len(records)} runs")
        print()
        print("=== trajectories ===")
        print(format_table(trajectory_rows(records)))
        print()
        print("=== latest run ===")
        print(format_run(records[-1]))

    if args.diff:
        a, b = (find_run(records, spec) for spec in args.diff)
        print()
        print(f"=== metrics diff {args.diff[0]} -> {args.diff[1]} ===")
        print(format_table(metrics_diff(a, b)))
    return 0


def init_subparser(subparsers) -> None:
    """Mount ``lightne report`` on the CLI's subparsers action."""
    parser = subparsers.add_parser(
        "report",
        help="perf-trajectory report over the run ledger",
        description="Perf-trajectory report over the run ledger",
    )
    parser.add_argument(
        "--ledger", default=active_path(),
        help="runs.jsonl path (default: REPRO_LEDGER_PATH or "
             "benchmarks/results/runs.jsonl)",
    )
    parser.add_argument("--method", help="filter: method name")
    parser.add_argument("--dataset", help="filter: dataset name")
    parser.add_argument(
        "--diff", nargs=2, metavar=("RUN_A", "RUN_B"),
        help="metrics diff between two runs: run-id prefixes or 1-based "
             "ledger indices (negative = from the end), as `lightne audit`",
    )
    parser.set_defaults(func=_run)
