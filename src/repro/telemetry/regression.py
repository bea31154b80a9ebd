"""Statistical performance-regression detection over the run ledger.

Given a ledger (:mod:`repro.telemetry.ledger`), the detector answers one
question per ``method × dataset × params-hash`` group: *did the newest
run(s) get slower than the established baseline, beyond measurement
noise?*  The comparison is deliberately robust rather than clever:

* the **baseline** is every earlier matching run — same method, dataset,
  canonical params hash and (preferably) environment fingerprint; when no
  fingerprint-matching baseline exists the detector falls back to ignoring
  the fingerprint and downgrades the whole group to *warn-only* (different
  hardware cannot hard-fail a gate);
* per stage, the baseline is summarized by its **median** and **MAD**
  (median absolute deviation, the robust spread estimate; scaled by 1.4826
  it estimates sigma for normal noise);
* a stage is a **confirmed regression** only when *all* noise guards
  trip: the candidate median exceeds the baseline median by the relative
  tolerance, by the absolute slack, and — when the baseline has enough
  samples to estimate spread — by ``z_threshold`` robust sigmas.  A
  single-sample baseline has no MAD, so only the tolerance checks apply.

``NaN`` or missing stage timings never crash the gate: they are dropped
from the statistics and reported as notes.  Speedups are never flagged.

Beyond timing, the gate also watches **quality** (``RunRecord.quality`` —
micro-F1, MRR, ...): per metric, a candidate median more than
``quality_slack`` absolute points below the baseline median is a
``quality.<metric>`` regression.  Quality rows gate even when the
environment fingerprint differs — a deterministic pipeline's scores do not
depend on the machine — while timing rows stay advisory in that case.

``lightne regress`` (:func:`init_subparser`) is the CI gate over this
module.  It reads the run ledger, prints a per-stage delta table for every
group and exits

* ``0`` — no confirmed regression (including the empty-ledger and
  no-baseline cases, which warn instead of failing: a gate that has
  nothing to compare must not block),
* ``1`` — at least one confirmed regression in a fingerprint-matched
  group, or a quality drop in any group.

Examples
--------
Gate the newest run in the default ledger::

    lightne regress

Gate against a separately committed baseline ledger, with a looser bound
for the sparsifier stage::

    lightne regress --ledger new_runs.jsonl \\
        --baseline benchmarks/results/runs.jsonl \\
        --tolerance 0.5 --stage-tolerance sparsifier=1.0
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.ledger import RunLedger, RunRecord
from repro.utils.table import format_table, key_union

# A stage must be at least this slow (baseline or candidate) to be gated at
# all; micro-stages in the microsecond range are pure scheduling noise.
DEFAULT_MIN_SECONDS = 0.005
DEFAULT_TOLERANCE = 0.25     # candidate > baseline by 25 % trips the gate...
DEFAULT_ABS_SLACK = 0.05     # ...but only if it is also 50 ms slower...
DEFAULT_Z_THRESHOLD = 3.0    # ...and 3 robust sigmas out (when MAD exists).

# Quality gating (micro-F1, MRR, ... from RunRecord.quality): a candidate
# whose median score drops more than this many absolute points below the
# baseline median is a regression.  Scores are hardware-independent for a
# deterministic pipeline, so quality rows gate even when the environment
# fingerprint differs (unlike timing rows).
DEFAULT_QUALITY_SLACK = 0.02

# StageDelta rows for quality metrics carry this stage-name prefix.
QUALITY_STAGE_PREFIX = "quality."

MAD_SIGMA_SCALE = 1.4826     # MAD -> sigma under normal noise


def median(values: Sequence[float]) -> float:
    """Plain median (values must be non-empty)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def _finite(values: Sequence[Optional[float]]) -> List[float]:
    """Drop ``None`` and non-finite entries."""
    return [
        float(v)
        for v in values
        if v is not None and isinstance(v, (int, float)) and math.isfinite(float(v))
    ]


@dataclass
class StageDelta:
    """One stage's baseline-vs-candidate comparison."""

    stage: str
    baseline_median: Optional[float]
    baseline_mad: Optional[float]
    baseline_count: int
    candidate: Optional[float]
    rel_delta: Optional[float] = None   # (cand - base) / base
    z_score: Optional[float] = None     # robust sigmas above baseline
    regressed: bool = False
    note: str = ""

    def as_row(self) -> Dict[str, object]:
        """The delta-table row the CLI prints."""
        return {
            "stage": self.stage,
            "baseline_s": None if self.baseline_median is None
            else round(self.baseline_median, 4),
            "mad_s": None if self.baseline_mad is None
            else round(self.baseline_mad, 4),
            "n_base": self.baseline_count,
            "candidate_s": None if self.candidate is None
            else round(self.candidate, 4),
            "delta_%": None if self.rel_delta is None
            else round(100.0 * self.rel_delta, 1),
            "z": None if self.z_score is None else round(self.z_score, 2),
            "verdict": "REGRESSED" if self.regressed
            else (self.note or "ok"),
        }


@dataclass
class RegressionReport:
    """The gate's verdict for one ``method × dataset × params-hash`` group."""

    method: str
    dataset: str
    params_hash: str
    baseline_count: int
    candidate_count: int
    fingerprint_matched: bool
    deltas: List[StageDelta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[StageDelta]:
        """The stages that confirmed a regression."""
        return [d for d in self.deltas if d.regressed]

    @property
    def quality_regressions(self) -> List[StageDelta]:
        """Confirmed quality-score drops (``quality.*`` rows)."""
        return [
            d for d in self.regressions
            if d.stage.startswith(QUALITY_STAGE_PREFIX)
        ]

    @property
    def timing_regressions(self) -> List[StageDelta]:
        """Confirmed stage slowdowns (everything but the ``quality.*`` rows)."""
        return [
            d for d in self.regressions
            if not d.stage.startswith(QUALITY_STAGE_PREFIX)
        ]

    @property
    def ok(self) -> bool:
        """True unless a regression gates this group.

        Timing regressions only gate when the environment fingerprint
        matched the baseline (different hardware is advisory).  Quality
        regressions gate unconditionally — scores from a deterministic
        pipeline do not depend on the machine.
        """
        if self.quality_regressions:
            return False
        return not (self.fingerprint_matched and self.timing_regressions)


def select_baseline(
    records: Sequence[RunRecord],
    candidate: RunRecord,
) -> Tuple[List[RunRecord], bool]:
    """Earlier runs comparable to ``candidate``.

    Matching is ``method × dataset × params_hash``, and the environment
    fingerprint when the candidate has one.  Returns ``(baseline_records,
    fingerprint_matched)`` — when no fingerprint-matching baseline exists
    the selection silently retries without the fingerprint and reports
    ``fingerprint_matched=False`` so the caller can warn instead of gate.
    """
    same_key = [
        r for r in records
        if r.key == candidate.key and r.run_id != candidate.run_id
    ]
    if candidate.fingerprint:
        matched = [r for r in same_key if r.fingerprint == candidate.fingerprint]
        if matched:
            return matched, True
        return same_key, False
    return same_key, True


def _summarize(
    stage: str,
    baseline: Sequence[Optional[float]],
    candidates: Sequence[Optional[float]],
    *,
    new_note: str,
) -> Optional[StageDelta]:
    """One row's medians, MAD and z-score, before any verdict.

    ``None`` when neither side has a finite value; a row only one side has
    comes back with its ``note`` set (there is nothing to judge).
    """
    base_values, cand_values = _finite(baseline), _finite(candidates)
    if not base_values and not cand_values:
        return None
    delta = StageDelta(
        stage=stage,
        baseline_median=median(base_values) if base_values else None,
        baseline_mad=mad(base_values) if len(base_values) > 1 else None,
        baseline_count=len(base_values),
        candidate=median(cand_values) if cand_values else None,
    )
    if not cand_values:
        delta.note = "missing in candidate"
    elif not base_values:
        delta.note = new_note
    elif delta.baseline_mad:
        delta.z_score = (delta.candidate - delta.baseline_median) / (
            MAD_SIGMA_SCALE * delta.baseline_mad
        )
    return delta


def compare(
    baseline: Sequence[RunRecord],
    candidates: Sequence[RunRecord],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    stage_tolerances: Optional[Mapping[str, float]] = None,
    abs_slack: float = DEFAULT_ABS_SLACK,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    quality_slack: float = DEFAULT_QUALITY_SLACK,
    fingerprint_matched: bool = True,
) -> RegressionReport:
    """Noise-aware per-stage comparison of ``candidates`` vs ``baseline``.

    ``candidates`` (usually the most recent run, or the last *k* repeats)
    are summarized by their median per stage; so is the baseline, together
    with its MAD.  Per-stage relative tolerances override the default via
    ``stage_tolerances``.

    Quality metrics recorded on the runs (``RunRecord.quality`` — micro-F1,
    MRR, ...) are compared the same median-vs-median way as ``quality.*``
    rows: a candidate median more than ``quality_slack`` absolute points
    *below* the baseline median is a regression (higher is better for every
    recorded score; improvements are never flagged).
    """
    stage_tolerances = dict(stage_tolerances or {})
    anchor = candidates[0] if candidates else (baseline[0] if baseline else None)
    report = RegressionReport(
        method=anchor.method if anchor else "",
        dataset=anchor.dataset if anchor else "",
        params_hash=anchor.params_hash if anchor else "",
        baseline_count=len(baseline),
        candidate_count=len(candidates),
        fingerprint_matched=fingerprint_matched,
    )
    if not baseline:
        report.warnings.append("no matching baseline runs — nothing to gate")
        return report
    if not candidates:
        report.warnings.append("no candidate runs selected")
        return report
    if not fingerprint_matched:
        report.warnings.append(
            "environment fingerprint differs from every baseline run — "
            "comparison is advisory only (warn, not gate)"
        )

    runs = list(baseline) + list(candidates)
    for stage in key_union(r.stages for r in runs) + ["total"]:
        delta = _summarize(
            stage,
            [r.stage_seconds(stage) for r in baseline],
            [r.stage_seconds(stage) for r in candidates],
            new_note="new stage (no baseline)",
        )
        if delta is None:
            continue
        report.deltas.append(delta)
        if delta.note:
            continue
        base, cand = delta.baseline_median, delta.candidate
        delta.rel_delta = (cand - base) / base if base > 0 else None
        if max(base, cand) < min_seconds:
            delta.note = "below min_seconds"
        elif delta.rel_delta is None:
            delta.note = "zero baseline"
        else:
            stage_tol = stage_tolerances.get(stage, tolerance)
            slower_enough = (
                delta.rel_delta > stage_tol and (cand - base) > abs_slack
            )
            # With >= 2 baseline samples and a real spread estimate, also
            # require the candidate to be z_threshold robust sigmas out;
            # a single-sample baseline (or zero MAD) relies on the
            # tolerance checks alone.
            noise_confirmed = (
                delta.z_score is None or delta.z_score > z_threshold
            )
            delta.regressed = slower_enough and noise_confirmed
            if not delta.regressed and slower_enough:
                delta.note = "within noise (z)"

    # Quality rows: absolute-slack gate on score drops (higher = better).
    for name in key_union(r.quality for r in runs):
        delta = _summarize(
            QUALITY_STAGE_PREFIX + name,
            [r.quality.get(name) for r in baseline],
            [r.quality.get(name) for r in candidates],
            new_note="new metric (no baseline)",
        )
        if delta is None:
            continue
        report.deltas.append(delta)
        if delta.note:
            continue
        base, cand = delta.baseline_median, delta.candidate
        delta.rel_delta = (cand - base) / base if base != 0 else None
        delta.regressed = (base - cand) > quality_slack
        if not delta.regressed and cand < base:
            delta.note = "within slack"
    return report


def detect(
    records: Sequence[RunRecord],
    *,
    method: Optional[str] = None,
    dataset: Optional[str] = None,
    candidate_runs: int = 1,
    baseline_records: Optional[Sequence[RunRecord]] = None,
    **thresholds: object,
) -> List[RegressionReport]:
    """Run the gate over every matching group in ``records``.

    ``records`` is the ledger in chronological order.  For each
    ``method × dataset × params-hash`` group (optionally filtered), the
    newest ``candidate_runs`` records are compared against the group's
    earlier runs — or against ``baseline_records`` when an explicit
    baseline ledger is supplied (the CI shape: candidate ledger from this
    build, baseline ledger from the committed results).  ``thresholds``
    (``tolerance``, ``stage_tolerances``, ``abs_slack``, ``z_threshold``,
    ``min_seconds``, ``quality_slack``) are :func:`compare`'s.
    """
    if candidate_runs < 1:
        # group[-0:] is the whole group: every run a candidate, no baseline,
        # and a gate that can never fail.
        raise ValueError(f"candidate_runs must be >= 1, got {candidate_runs}")
    groups: Dict[Tuple[str, str, str], List[RunRecord]] = {}
    for record in records:
        if method is not None and record.method != method:
            continue
        if dataset is not None and record.dataset != dataset:
            continue
        groups.setdefault(record.key, []).append(record)

    reports: List[RegressionReport] = []
    for key in sorted(groups):
        group = groups[key]
        candidates = group[-candidate_runs:]
        if baseline_records is not None:
            pool: Sequence[RunRecord] = [
                r for r in baseline_records if r.key == key
            ]
        else:
            pool = group[: len(group) - len(candidates)]
        baseline, matched = select_baseline(pool, candidates[-1])
        # select_baseline drops the candidate itself from explicit pools
        # and applies fingerprint preference in one place.
        reports.append(
            compare(
                baseline, candidates, fingerprint_matched=matched, **thresholds
            )
        )
    return reports


# ---------------------------------------------------------------------------
# CLI: lightne regress
# ---------------------------------------------------------------------------


def _candidate_runs(text: str) -> int:
    """``--candidate-runs`` value: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _parse_stage_tolerances(pairs: Sequence[str]) -> Dict[str, float]:
    """``["sparsifier=0.5", "svd=0.3"]`` -> ``{"sparsifier": 0.5, ...}``."""
    out: Dict[str, float] = {}
    for pair in pairs:
        for item in pair.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise SystemExit(
                    f"--stage-tolerance expects STAGE=FRACTION, got {item!r}"
                )
            stage, _, value = item.partition("=")
            try:
                out[stage.strip()] = float(value)
            except ValueError:
                raise SystemExit(
                    f"--stage-tolerance {item!r}: {value!r} is not a number"
                )
    return out


def _print_report(report: RegressionReport) -> None:
    gate = "gate" if report.fingerprint_matched else "warn-only"
    print(
        f"\n=== {report.method} × {report.dataset} "
        f"[params {report.params_hash[:8]}] — "
        f"{report.candidate_count} candidate vs {report.baseline_count} "
        f"baseline runs ({gate}) ==="
    )
    for warning in report.warnings:
        print(f"  warning: {warning}")
    if report.deltas:
        print(format_table([d.as_row() for d in report.deltas]))
    status = "OK" if report.ok else "REGRESSION"
    if report.regressions:
        quality = report.quality_regressions
        timing = report.timing_regressions
        parts = []
        if timing:
            stages = ", ".join(d.stage for d in timing)
            qualifier = (
                "" if report.fingerprint_matched
                else " (not gated: fingerprint mismatch)"
            )
            parts.append(f"slower stages: {stages}{qualifier}")
        if quality:
            # Quality drops gate regardless of the fingerprint.
            parts.append(
                "quality drops: " + ", ".join(d.stage for d in quality)
            )
        print(f"  -> {status}: " + "; ".join(parts))
    else:
        print(f"  -> {status}")


def _run(args: argparse.Namespace) -> int:
    """The gate command body; returns the process exit code."""
    stage_tolerances = _parse_stage_tolerances(args.stage_tolerance)

    records = RunLedger(args.ledger).records()
    if not records:
        print(f"ledger {args.ledger}: empty or missing — nothing to gate")
        return 0

    baseline_records = None
    if args.baseline:
        baseline_records = RunLedger(args.baseline).records()
        if not baseline_records:
            print(
                f"baseline ledger {args.baseline}: empty or missing — "
                "nothing to gate"
            )
            return 0

    reports = detect(
        records,
        method=args.method,
        dataset=args.dataset,
        candidate_runs=args.candidate_runs,
        tolerance=args.tolerance,
        stage_tolerances=stage_tolerances,
        abs_slack=args.abs_slack,
        z_threshold=args.z_threshold,
        min_seconds=args.min_seconds,
        quality_slack=args.quality_slack,
        baseline_records=baseline_records,
    )
    if not reports:
        print("no runs match the requested method/dataset filters")
        return 0

    for report in reports:
        _print_report(report)

    failed = [r for r in reports if not r.ok]
    print()
    if failed:
        print(
            f"regression gate: FAILED "
            f"({len(failed)}/{len(reports)} groups regressed)"
        )
        return 1
    print(f"regression gate: passed ({len(reports)} groups)")
    return 0


def init_subparser(subparsers) -> None:
    """Mount ``lightne regress`` on the CLI's subparsers action."""
    parser = subparsers.add_parser(
        "regress",
        help="statistical perf/quality regression gate over the run ledger",
        description="Statistical perf-regression gate over the run ledger",
    )
    parser.add_argument(
        "--ledger", default=RunLedger().path,
        help="candidate ledger (runs.jsonl); its newest runs are gated",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="separate baseline ledger (default: earlier runs of --ledger)",
    )
    parser.add_argument("--method", help="gate only this method")
    parser.add_argument("--dataset", help="gate only this dataset")
    parser.add_argument(
        "--candidate-runs", type=_candidate_runs, default=1,
        help="how many newest runs per group form the candidate (median)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative slowdown that trips the gate (default %(default)s)",
    )
    parser.add_argument(
        "--stage-tolerance", action="append", default=[],
        metavar="STAGE=FRACTION",
        help="per-stage tolerance override (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--abs-slack", type=float, default=DEFAULT_ABS_SLACK,
        help="absolute seconds a stage must slow down by (default %(default)s)",
    )
    parser.add_argument(
        "--z-threshold", type=float, default=DEFAULT_Z_THRESHOLD,
        help="robust sigmas beyond baseline noise (default %(default)s)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="stages faster than this are never gated (default %(default)s)",
    )
    parser.add_argument(
        "--quality-slack", type=float, default=DEFAULT_QUALITY_SLACK,
        help="absolute score drop (micro-F1, MRR, ...) that fails the "
             "quality gate; quality rows gate even on a fingerprint "
             "mismatch (default %(default)s)",
    )
    parser.set_defaults(func=_run)
