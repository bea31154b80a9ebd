"""Determinism audit: ``lightne audit`` — diff two runs stage by stage.

A thread-vs-process (or before-vs-after) embedding diff used to be one
opaque ``np.array_equal`` over the final matrix: it told you *that* two runs
diverged, never *where*.  With the numerical-health layer
(:mod:`repro.telemetry.health`) recording per-stage content digests into the
ledger's ``digests``/``health`` blocks, this module compares two
:class:`~repro.telemetry.ledger.RunRecord` lines checkpoint by checkpoint
and localizes the **first diverging stage** — everything upstream of it
matched bit for bit, so the divergence was introduced there.

Run selection (CLI positional ``RUN`` arguments):

* two specs, each a ledger index or ``run_id`` prefix as
  :func:`~repro.telemetry.ledger.find_run` reads them (``lightne audit 1 2``,
  ``lightne audit -2 -1``, ``lightne audit 3f2a 9c1d``);
* no arguments: the newest digest-carrying run against the nearest earlier
  run of the same method × dataset (same params hash preferred, but not
  required — thread-vs-process pairs legitimately differ in params, which
  include ``backend``).

``--strict`` exits non-zero unless every compared stage matched (the CI
bit-identity gate); ``--table-out`` writes the delta table to a file for
artifact upload.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.ledger import RunLedger, RunRecord, active_path, find_run
from repro.utils.fileio import atomic_write_text
from repro.utils.table import format_table, key_union


@dataclass
class AuditDelta:
    """One stage's digest comparison between two runs."""

    stage: str
    digest_a: Optional[str]
    digest_b: Optional[str]
    norm_a: Optional[float] = None
    norm_b: Optional[float] = None
    nonfinite_a: int = 0
    nonfinite_b: int = 0
    note: str = ""

    @property
    def match(self) -> Optional[bool]:
        """True/False when both digests exist, None when one is missing."""
        if self.digest_a is None or self.digest_b is None:
            return None
        return self.digest_a == self.digest_b

    @property
    def diverged(self) -> bool:
        """A missing digest on either side counts as divergence."""
        return self.match is not True

    def as_row(self) -> Dict[str, object]:
        """The delta-table row the CLI prints."""
        delta_norm = None
        if self.norm_a is not None and self.norm_b is not None:
            delta_norm = self.norm_b - self.norm_a
        if self.match is True:
            verdict = "match"
        elif self.match is False:
            verdict = "DIVERGED"
        else:
            verdict = self.note or "missing"
        return {
            "stage": self.stage,
            "digest_a": self.digest_a or "-",
            "digest_b": self.digest_b or "-",
            "delta_norm": None if delta_norm is None else round(delta_norm, 6),
            "nonfinite_a": self.nonfinite_a,
            "nonfinite_b": self.nonfinite_b,
            "verdict": verdict,
        }


@dataclass
class AuditReport:
    """The stage-by-stage audit of run ``b`` against run ``a``."""

    run_a: RunRecord
    run_b: RunRecord
    deltas: List[AuditDelta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def compared(self) -> List[AuditDelta]:
        """Stages with a digest on both sides."""
        return [d for d in self.deltas if d.match is not None]

    @property
    def first_divergence(self) -> Optional[str]:
        """The earliest stage that failed to match (None = all matched)."""
        for delta in self.deltas:
            if delta.diverged:
                return delta.stage
        return None

    @property
    def identical(self) -> bool:
        """True when at least one stage compared and none diverged."""
        return bool(self.compared) and self.first_divergence is None

    def rows(self) -> List[Dict[str, object]]:
        """The printable delta table."""
        return [d.as_row() for d in self.deltas]


def _stage_stats(record: RunRecord) -> Dict[str, Mapping[str, object]]:
    """Per-checkpoint digest stats in recorded order: the ``health`` block's
    stage entries, or bare ``digests`` keys on a record without them."""
    stats: Dict[str, Mapping[str, object]] = {
        str(entry["stage"]): entry
        for entry in record.health.get("stages") or []
        if isinstance(entry, Mapping) and entry.get("stage")
    }
    return stats or {stage: {} for stage in record.digests}


def compare_runs(record_a: RunRecord, record_b: RunRecord) -> AuditReport:
    """Stage-by-stage digest diff of two ledger records."""
    report = AuditReport(run_a=record_a, run_b=record_b)
    for record in (record_a, record_b):
        if not record.digests:
            report.warnings.append(
                f"run {record.run_id} carries no stage digests "
                "(recorded without --health?)"
            )
    stats_a = _stage_stats(record_a)
    stats_b = _stage_stats(record_b)
    # Checkpoint order: run A's recorded order, then B-only extras.
    for stage in key_union([stats_a, stats_b]):
        entry_a = stats_a.get(stage, {})
        entry_b = stats_b.get(stage, {})
        delta = AuditDelta(
            stage=stage,
            digest_a=record_a.digests.get(stage),
            digest_b=record_b.digests.get(stage),
            norm_a=entry_a.get("norm"),  # type: ignore[arg-type]
            norm_b=entry_b.get("norm"),  # type: ignore[arg-type]
            nonfinite_a=int(entry_a.get("nonfinite") or 0),
            nonfinite_b=int(entry_b.get("nonfinite") or 0),
        )
        if delta.match is None:
            missing = "a" if delta.digest_a is None else "b"
            delta.note = f"missing in {missing}"
        report.deltas.append(delta)
    for label, record in (("a", record_a), ("b", record_b)):
        for probe in record.health.get("probes") or []:
            if isinstance(probe, Mapping) and not probe.get("ok", True):
                report.warnings.append(
                    f"run {label} ({record.run_id}): probe "
                    f"{probe.get('name')} failed at stage "
                    f"{probe.get('stage')} (value={probe.get('value')})"
                )
    return report


def select_runs(
    records: Sequence[RunRecord],
    specs: Sequence[str] = (),
) -> Tuple[RunRecord, RunRecord]:
    """Resolve the audited pair ``(a, b)`` from CLI arguments.

    With two specs, each resolves independently (:func:`find_run`).  With
    none, the newest digest-carrying run is ``b`` and the nearest earlier
    run of the same method × dataset is ``a`` (same params hash preferred).
    """
    if len(specs) == 2:
        return find_run(records, specs[0]), find_run(records, specs[1])
    if specs:
        raise SystemExit("audit takes exactly two RUN arguments, or none")
    if len(records) < 2:
        raise SystemExit(
            f"ledger has {len(records)} runs — need at least two to audit"
        )
    newest = ([r for r in records if r.digests] or records)[-1]
    earlier = [
        r for r in records
        if r.run_id != newest.run_id
        and r.method == newest.method
        and r.dataset == newest.dataset
        and r.timestamp <= newest.timestamp
    ]
    if not earlier:
        raise SystemExit(
            f"no earlier {newest.method} × {newest.dataset} run to compare "
            f"run {newest.run_id} against"
        )
    same_params = [r for r in earlier if r.params_hash == newest.params_hash]
    baseline = (same_params or earlier)[-1]
    return baseline, newest


def _describe(record: RunRecord, label: str) -> str:
    backend = record.extra.get("backend", record.params.get("backend", "?"))
    return (
        f"  {label}: run {record.run_id}  {record.method} × {record.dataset}"
        f"  [params {record.params_hash[:8]}]  backend={backend}"
        f"  seed={record.seed}"
    )


def _run(args: argparse.Namespace) -> int:
    """The audit command body; returns the process exit code."""
    records = RunLedger(args.ledger).records(args.method, args.dataset)
    if not records:
        print(f"ledger {args.ledger}: no matching runs")
        return 1 if args.strict else 0

    run_a, run_b = select_runs(records, args.runs)
    report = compare_runs(run_a, run_b)

    lines = [
        f"audit: {run_a.run_id} (a) vs {run_b.run_id} (b)",
        _describe(run_a, "a"),
        _describe(run_b, "b"),
    ]
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    table = format_table(report.rows()) if report.deltas else "(no stage digests)"
    lines.append(table)
    if report.identical:
        lines.append(
            f"-> IDENTICAL: all {len(report.compared)} compared stages match"
        )
    elif report.first_divergence is not None:
        lines.append(f"-> first diverging stage: {report.first_divergence}")
    else:
        lines.append("-> NOTHING TO COMPARE: no stage digests on either run")
    text = "\n".join(lines)
    print(text)
    if args.table_out:
        atomic_write_text(args.table_out, text + "\n")
        print(f"audit table -> {args.table_out}")
    if args.strict and not report.identical:
        return 1
    return 0


def init_subparser(subparsers) -> None:
    """Mount ``lightne audit`` on the CLI's subparsers action."""
    parser = subparsers.add_parser(
        "audit",
        help="diff two ledger runs' stage digests; localize the first "
             "diverging stage (record runs with --health record first)",
        description="Diff two runs' stage digests; localize the first "
                    "diverging stage",
    )
    parser.add_argument(
        "runs", nargs="*", metavar="RUN",
        help="two runs to compare: run-id prefixes or 1-based ledger "
             "indices (negative = from the end); default: newest vs the "
             "nearest earlier run of the same method × dataset",
    )
    parser.add_argument(
        "--ledger", default=active_path(),
        help="run-ledger JSONL path (default: REPRO_LEDGER_PATH or "
             "benchmarks/results/runs.jsonl)",
    )
    parser.add_argument("--method", help="consider only this method's runs")
    parser.add_argument("--dataset", help="consider only this dataset's runs")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero unless every compared stage digest matches "
             "(the CI bit-identity gate)",
    )
    parser.add_argument(
        "--table-out", metavar="PATH",
        help="also write the delta table to PATH (CI artifact upload)",
    )
    parser.set_defaults(func=_run)
