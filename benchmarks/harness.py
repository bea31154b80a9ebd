"""Shared helpers for the experiment benchmarks (E1–E12).

Keeps each ``bench_e*.py`` down to the experiment logic: load the dataset
analog, run the method, evaluate with the paper's protocol, report a table.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets import load_dataset
from repro.embedding.base import EmbeddingResult
from repro.eval import (
    evaluate_node_classification,
    link_prediction_auc,
    train_test_split_edges,
)
from repro.experiments import runner
from repro.telemetry import ledger

SEED = 2021  # the year of the paper; fixed everywhere for comparability

# Benchmark runs are *always* recorded to the run ledger (the bench
# trajectory is the whole point of the benchmarks); REPRO_LEDGER_PATH
# still wins so CI can point runs at a scratch ledger.
RUNS_PATH = os.environ.get(ledger.ENV_PATH) or os.path.join(
    os.path.dirname(__file__), "results", "runs.jsonl"
)


def embed(method: str, graph, *, seed=SEED, **knobs) -> EmbeddingResult:
    """Uniform dispatch used by the cross-method benchmarks.

    :func:`repro.experiments.runner.dispatch_method` (its defaults and every
    knob it forwards) at the harness-wide seed.  Every call appends one
    :class:`~repro.telemetry.ledger.RunRecord` to
    ``benchmarks/results/runs.jsonl`` — the run ledger ``lightne report``
    and ``lightne audit`` read.
    """
    with ledger.enabled_scope(path=RUNS_PATH):
        return runner.dispatch_method(method, graph, seed=seed, **knobs)


def classification_row(
    vectors: np.ndarray,
    labels: np.ndarray,
    ratios: Sequence[float],
    *,
    metric: str = "micro",
    repeats: int = 2,
    seed: int = SEED,
) -> Dict[str, float]:
    """``metric``-F1 (``"micro"`` or ``"macro"``, percent) at each training
    ratio, keyed ``<metric>@<ratio>``."""
    row: Dict[str, float] = {}
    for ratio in ratios:
        result = evaluate_node_classification(
            vectors, labels, ratio, repeats=repeats, seed=seed
        )
        row[f"{metric}@{ratio:g}"] = round(100 * getattr(result, f"{metric}_f1"), 2)
    return row


def auc_row(graph, method: str, *, dimension=32, window=5, multiplier=2.0,
            seed: int = SEED) -> Dict[str, object]:
    """GraphVite protocol: held-out AUC plus time/cost for one method."""
    train, pos_u, pos_v = train_test_split_edges(graph, 0.02, seed=seed)
    result = embed(method, train, dimension=dimension, window=window,
                   multiplier=multiplier)
    auc = link_prediction_auc(result.vectors, train, pos_u, pos_v, seed=seed)
    return {
        "method": method,
        "time_s": round(result.total_seconds, 3),
        "cost_$": runner.cost_of(method, result.total_seconds),
        "AUC": round(100 * auc, 2),
    }


def load(name: str):
    """Dataset loader with the harness-wide seed.

    Also declares ``name`` as the dataset context for the run ledger, so
    records produced by subsequent :func:`embed` calls carry it.
    """
    ledger.set_dataset(name)
    return load_dataset(name, seed=SEED)


def run_probe(script: str, *, env: Optional[Dict[str, str]] = None) -> Dict:
    """Run ``script`` in a fresh interpreter and parse its last JSON line.

    Memory benchmarks need fresh processes: RSS / VmData high-water marks
    never shrink, so comparing two configurations inside one process would
    let the first run's peak mask the second's.  The child is expected to
    ``print(json.dumps(...))`` as its final stdout line.
    """
    import json
    import subprocess
    import sys

    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = src_dir + os.pathsep + child_env.get("PYTHONPATH", "")
    if env:
        child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"probe subprocess failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_metrics_snapshot(path: str) -> Optional[str]:
    """Dump the tracer's counter totals as ``{"counters": {...}}`` JSON.

    No-op (returns ``None``) when telemetry is disabled or nothing was
    counted; otherwise returns ``path``.  The benchmark conftest calls this
    so the counters land in ``benchmarks/results/`` next to ``report.txt``
    when the run was launched with ``REPRO_TELEMETRY=1``.
    """
    from repro import telemetry
    from repro.utils.fileio import atomic_write_json

    tracer = telemetry.get_tracer()
    if tracer is None or not tracer.counters:
        return None
    counters = dict(sorted(tracer.counters.items()))
    atomic_write_json(path, {"counters": counters}, indent=2)
    return path
