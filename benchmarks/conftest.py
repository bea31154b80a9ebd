"""Benchmark-harness plumbing.

Each ``bench_e*.py`` file reproduces one table or figure from the paper
(see DESIGN.md's experiment index).  Benchmarks time the real pipelines with
pytest-benchmark and emit the paper-style rows through :func:`report_table`,
which prints them in the terminal summary (so they survive pytest's output
capture) and appends them to ``benchmarks/results/report.txt``.

Set ``REPRO_TELEMETRY=1`` to run the benchmarks with the telemetry subsystem
enabled; the tracer's counter totals are then written to
``benchmarks/results/metrics.json`` alongside the report.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

_TABLES: List[tuple] = []

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report_table(title: str, rows: List[Dict[str, object]]) -> str:
    """Format ``rows`` with the library's table renderer and queue the block
    for the terminal summary.  Returns the formatted text."""
    from repro.experiments import format_table

    text = format_table(rows)
    block = f"\n=== {title} ===\n{text}\n"
    _TABLES.append((title, block))
    return text


@pytest.fixture
def table():
    """Fixture handle for benchmarks to publish result tables."""
    return report_table


def pytest_configure(config):
    if os.environ.get("REPRO_TELEMETRY"):
        from repro import telemetry

        telemetry.enable()
    # Benchmark sessions always feed the run ledger: every run_pipeline
    # call (harness.embed and the experiments-runner paths alike) appends
    # a RunRecord, building the trajectory `lightne report` renders.
    from benchmarks.harness import RUNS_PATH
    from repro.telemetry import ledger

    ledger.enable(path=RUNS_PATH)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from benchmarks.harness import RUNS_PATH
    from repro.telemetry import ledger

    if os.path.exists(RUNS_PATH):
        terminalreporter.write_line(
            f"run ledger -> {RUNS_PATH} "
            f"({len(ledger.RunLedger(RUNS_PATH).records())} records)"
        )
    if os.environ.get("REPRO_TELEMETRY"):
        from benchmarks.harness import write_metrics_snapshot

        os.makedirs(RESULTS_DIR, exist_ok=True)
        written = write_metrics_snapshot(os.path.join(RESULTS_DIR, "metrics.json"))
        if written:
            terminalreporter.write_line(f"telemetry metrics -> {written}")
    if not _TABLES:
        return
    terminalreporter.section("paper-table reproductions")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "report.txt"), "a", encoding="utf-8") as out:
        for _, block in _TABLES:
            terminalreporter.write(block)
            out.write(block)
