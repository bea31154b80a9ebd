"""Perf-trajectory reports over the run ledger (terminal + static HTML).

Three render targets, all fed by :mod:`repro.telemetry.ledger` records:

* **terminal** — per-run Table-5 stage breakdowns, unicode sparkline
  trajectories per ``method × dataset`` group, and metrics diffs between
  any two runs (``lightne report``, mounted by :func:`init_subparser`);
* **HTML** — a single self-contained file (inline CSS + inline SVG, no
  external/network assets) with the same sections plus, when a Chrome
  trace-event JSON is supplied, a flamegraph-style icicle view of the
  span tree;
* **rows** — the plain list-of-dict tables behind both, printed through
  :func:`repro.utils.format_table`.

Nothing here imports the embedding stack; the report runs on any machine
that has the ledger file.
"""

from __future__ import annotations

import argparse
import html as html_mod
import json
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.ledger import RunLedger, RunRecord, active_path, find_run
from repro.telemetry.regression import median
from repro.utils.fileio import atomic_write_text
from repro.utils.table import format_cell, format_table, key_union

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


def _group_quality_metric(group: Sequence[RunRecord]) -> Optional[str]:
    """The group's headline quality metric: first one any run recorded."""
    return next(iter(key_union(r.quality for r in group)), None)


def _quality_series(
    group: Sequence[RunRecord], metric: str
) -> List[float]:
    """That metric's values across the group's runs (recorded ones only)."""
    return [
        float(record.quality[metric])
        for record in group
        if metric in record.quality
    ]


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
            "median_s": round(median(totals), 4),
            "trend": sparkline(totals),
        }
        metric = _group_quality_metric(group)
        values = _quality_series(group, metric) if metric is not None else []
        row["quality"] = f"{metric}={values[-1]:.4g}" if values else None
        row["quality_trend"] = sparkline(values)
        rows.append(row)
    return rows


def metrics_diff(a: RunRecord, b: RunRecord) -> List[Dict[str, object]]:
    """Counter/gauge/stage deltas between two runs (``b`` relative to ``a``)."""

    def gauge_values(record: RunRecord) -> Dict[str, object]:
        return {
            name: (reading or {}).get("value")
            for name, reading in dict(record.metrics.get("gauges", {})).items()
        }

    rows: List[Dict[str, object]] = []
    for kind, side_a, side_b in (
        ("counter", a.metrics.get("counters", {}), b.metrics.get("counters", {})),
        ("gauge", gauge_values(a), gauge_values(b)),
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
# Flamegraph (icicle) layout from a Chrome trace-event export
# ---------------------------------------------------------------------------


def flame_boxes(trace: Mapping[str, object]) -> List[Dict[str, object]]:
    """Layout boxes for an icicle view of a Chrome trace.

    Each ``"X"`` (complete) event becomes one box with ``left``/``width``
    as percentages of the trace extent and ``depth`` from nesting (computed
    per lane by interval containment on the sorted event stream).  Lanes are
    keyed by ``(pid, tid)`` — merged cross-process traces reuse thread idents
    across workers, so grouping by tid alone would interleave unrelated
    processes into one bogus nesting stack.
    """
    events = [
        e
        for e in trace.get("traceEvents", [])
        if e.get("ph") == "X" and e.get("dur", 0) >= 0
    ]
    if not events:
        return []
    t0 = min(float(e["ts"]) for e in events)
    t1 = max(float(e["ts"]) + float(e["dur"]) for e in events)
    extent = max(t1 - t0, 1e-9)
    boxes: List[Dict[str, object]] = []
    by_lane: Dict[Tuple[object, object], List[dict]] = {}
    for event in events:
        by_lane.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    for (pid, tid), lane_events in sorted(
        by_lane.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        lane_events.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
        stack: List[Tuple[float, float]] = []  # (start, end) per open level
        for event in lane_events:
            start = float(event["ts"])
            end = start + float(event["dur"])
            while stack and start >= stack[-1][1] - 1e-9:
                stack.pop()
            depth = len(stack)
            stack.append((start, end))
            boxes.append(
                {
                    "name": str(event.get("name", "?")),
                    "pid": pid,
                    "tid": tid,
                    "depth": depth,
                    "left": 100.0 * (start - t0) / extent,
                    "width": max(100.0 * (end - start) / extent, 0.05),
                    "dur_ms": (end - start) / 1000.0,
                }
            )
    return boxes


# ---------------------------------------------------------------------------
# Self-contained static HTML
# ---------------------------------------------------------------------------

_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 960px; color: #1a1a2e; padding: 0 1em; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75em 0; }
th, td { border: 1px solid #d8d8e0; padding: 0.25em 0.6em; text-align: right; }
th { background: #f0f0f6; }
td.l, th.l { text-align: left; }
.meta { color: #55556b; font-size: 12px; }
.spark { stroke: #3b6bd6; stroke-width: 1.5; fill: none; }
.sparkarea { fill: #3b6bd622; stroke: none; }
.flame { position: relative; background: #fafafc; border: 1px solid #d8d8e0;
         margin: 0.5em 0; overflow: hidden; }
.flame div { position: absolute; height: 16px; font-size: 10px;
             overflow: hidden; white-space: nowrap; color: #222;
             border-radius: 2px; padding-left: 2px; box-sizing: border-box; }
.warn { color: #9a4d00; }
"""

_PALETTE = (
    "#a8c8f0", "#f0c8a8", "#b8e0b8", "#e0b8d8", "#d8d8a0",
    "#a0d8d8", "#e0c0c0", "#c0c0e8",
)


def _esc(text: object) -> str:
    return html_mod.escape(str(text))


def _html_table(rows: Sequence[Mapping[str, object]]) -> str:
    """:func:`format_table`'s columns and cells as an HTML table."""
    if not rows:
        return "<p class=meta>(no rows)</p>"
    columns = key_union(rows)
    head = "".join(f"<th class=l>{_esc(c)}</th>" for c in columns)
    body = "".join(
        "<tr>"
        + "".join(
            f"<td{' class=l' if isinstance(r.get(c), str) else ''}>"
            f"{_esc(format_cell(r.get(c)))}</td>"
            for c in columns
        )
        + "</tr>"
        for r in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _svg_sparkline(values: Sequence[float], width: int = 240, height: int = 36) -> str:
    """Inline SVG line chart of ``values`` (self-contained, no assets)."""
    finite = [float(v) for v in values if v is not None]
    if len(finite) < 2:
        return ""
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    pad = 2
    step = (width - 2 * pad) / (len(finite) - 1)
    points = [
        (
            pad + i * step,
            height - pad - (v - lo) / span * (height - 2 * pad),
        )
        for i, v in enumerate(finite)
    ]
    line = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    area = (
        f"{points[0][0]:.1f},{height - pad} "
        + line
        + f" {points[-1][0]:.1f},{height - pad}"
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polygon class=sparkarea points="{area}"/>'
        f'<polyline class=spark points="{line}"/></svg>'
    )


def _flame_html(trace: Mapping[str, object]) -> str:
    boxes = flame_boxes(trace)
    if not boxes:
        return "<p class=meta>(trace has no complete events)</p>"
    max_depth = max(int(b["depth"]) for b in boxes)
    height = (max_depth + 1) * 18 + 4
    divs = []
    for box in boxes:
        color = _PALETTE[hash(box["name"]) % len(_PALETTE)]
        title = (
            f"{box['name']} — {box['dur_ms']:.3f} ms "
            f"(pid {box.get('pid')}, tid {box.get('tid')})"
        )
        divs.append(
            f'<div style="left:{box["left"]:.3f}%;width:{box["width"]:.3f}%;'
            f'top:{int(box["depth"]) * 18 + 2}px;background:{color}" '
            f'title="{_esc(title)}">{_esc(box["name"])}</div>'
        )
    return f'<div class=flame style="height:{height}px">{"".join(divs)}</div>'


def render_html(
    records: Sequence[RunRecord],
    *,
    trace: Optional[Mapping[str, object]] = None,
    diff: Optional[Tuple[RunRecord, RunRecord]] = None,
    last: int = 5,
) -> str:
    """The full self-contained HTML report."""
    title = "repro run ledger"
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class=meta>{len(records)} runs in ledger — generated "
        f"{time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime())}</p>",
    ]
    if not records:
        parts.append("<p class=warn>The ledger is empty.</p>")
    else:
        env = records[-1].env
        parts.append(
            "<p class=meta>latest environment: "
            + _esc(
                ", ".join(
                    f"{k}={env.get(k)}"
                    for k in ("cpu_model", "cpu_count", "numpy", "scipy", "blas")
                    if env.get(k) is not None
                )
            )
            + "</p>"
        )

        parts.append("<h2>Trajectories</h2>")
        groups = group_records(records)
        for key in sorted(groups):
            group = groups[key]
            totals = [r.total_s for r in group]
            parts.append(
                f"<h3>{_esc(key[0])} × {_esc(key[1])} "
                f"<span class=meta>[params {_esc(key[2][:8])}, "
                f"{len(group)} runs]</span></h3>"
            )
            parts.append(_svg_sparkline(totals) or "")
            # Quality trajectory next to the stage-time one, sourced from
            # the runs' ledger ``quality`` fields (micro-F1, MRR, ...).
            quality_metric = _group_quality_metric(group)
            if quality_metric is not None:
                quality_svg = _svg_sparkline(
                    _quality_series(group, quality_metric)
                )
                if quality_svg:
                    parts.append(
                        f" <span class=meta>{_esc(quality_metric)}</span> "
                        + quality_svg
                    )
            stage_names = list(group[-1].stages)
            recent = group[-last:]
            rows = []
            for record in recent:
                row: Dict[str, object] = {
                    "run": record.run_id[:8],
                    "when": _stamp(record),
                    "git": (record.git_sha or "")[:8],
                }
                for name in stage_names:
                    value = record.stages.get(name)
                    row[f"{name}_s"] = (
                        None if value is None else round(float(value), 4)
                    )
                row["total_s"] = round(record.total_s, 4)
                if record.peak_rss_bytes:
                    row["peak_MiB"] = round(record.peak_rss_bytes / (1 << 20), 1)
                if quality_metric is not None:
                    value = record.quality.get(quality_metric)
                    row[quality_metric] = (
                        None if value is None else round(float(value), 4)
                    )
                rows.append(row)
            parts.append(_html_table(rows))

        parts.append("<h2>Latest run — stage breakdown (Table 5)</h2>")
        latest = records[-1]
        parts.append(
            f"<p class=meta>run {_esc(latest.run_id)} — {_esc(latest.method)} × "
            f"{_esc(latest.dataset)}, {_stamp(latest)}</p>"
        )
        parts.append(_html_table(_stage_rows(latest)))

    if diff is not None:
        a, b = diff
        parts.append(
            f"<h2>Metrics diff</h2><p class=meta>{_esc(a.run_id)} → "
            f"{_esc(b.run_id)}</p>"
        )
        parts.append(_html_table(metrics_diff(a, b)))

    if trace is not None:
        parts.append("<h2>Flamegraph (from Chrome-trace export)</h2>")
        parts.append(_flame_html(trace))

    parts.append("</body></html>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# CLI: lightne report
# ---------------------------------------------------------------------------


def _run(args: argparse.Namespace) -> int:
    """Render the ledger to the terminal and optionally to static HTML."""
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

    diff_pair: Optional[Tuple[RunRecord, RunRecord]] = None
    if args.diff:
        diff_pair = tuple(find_run(records, spec) for spec in args.diff)
        print()
        print(f"=== metrics diff {args.diff[0]} -> {args.diff[1]} ===")
        print(format_table(metrics_diff(*diff_pair)))

    trace_data: Optional[Mapping[str, object]] = None
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace_data = json.load(fh)

    if args.html:
        html = render_html(
            records, trace=trace_data, diff=diff_pair, last=args.last
        )
        atomic_write_text(args.html, html)
        print(f"\nhtml report -> {args.html}")
    return 0


def init_subparser(subparsers) -> None:
    """Mount ``lightne report`` on the CLI's subparsers action."""
    parser = subparsers.add_parser(
        "report",
        help="perf-trajectory report over the run ledger (terminal + HTML)",
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
        "--last", type=int, default=5, help="recent runs per group in tables"
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("RUN_A", "RUN_B"),
        help="metrics diff between two runs: run-id prefixes or 1-based "
             "ledger indices (negative = from the end), as `lightne audit`",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="Chrome trace-event JSON for the flamegraph section",
    )
    parser.add_argument(
        "--html", metavar="PATH", help="also write a self-contained HTML report"
    )
    parser.set_defaults(func=_run)
