"""Reusable experiment runners behind the paper-table benchmarks.

Each runner loads a registered dataset analog (or accepts a prepared
graph/labels pair), runs one or more embedding methods, evaluates with the
paper's protocol, and returns plain list-of-dict rows that
:func:`repro.utils.format_table` renders as aligned text.  ``lightne
compare`` prints them and the E-benchmarks assert on them:
``bench_e1`` calls :func:`run_link_prediction_comparison`, ``bench_e4``
:func:`run_multiplier_sweep`, ``bench_e5`` :func:`run_stage_breakdown` and
``bench_e8`` :func:`run_method_comparison`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.datasets import LabeledGraph, load_dataset
from repro.embedding.base import EmbeddingResult
from repro.embedding.registry import canonical_name, run_method
from repro.errors import EvaluationError
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    train_test_split_edges,
)
from repro.systems.cost import SYSTEM_INSTANCE, estimate_cost

DEFAULT_SEED = 2021

Row = Dict[str, object]


def dispatch_method(
    method: str,
    graph,
    *,
    dimension: int = 32,
    window: int = 5,
    multiplier: float = 1.0,
    propagate: bool = True,
    downsample: bool = True,
    seed: int = DEFAULT_SEED,
    **knobs: object,
) -> EmbeddingResult:
    """Run one named method with the harness-level knobs.

    Any name or alias in :mod:`repro.embedding.registry` is accepted (the
    paper tables' spellings ``prone+`` and ``graphvite`` are registered
    aliases); unknown names raise :class:`repro.errors.UnknownMethodError`.
    The five named arguments carry the harness's own defaults; ``knobs``
    passes any further generic knob (``workers``, ``precision``,
    ``sparsifier``, ... — the registry's
    :data:`~repro.embedding.registry.GENERIC_KNOBS`) or params field
    through, ``None`` meaning "the method's default".  One knob set is
    shared across methods, so a knob a method lacks or pins is dropped
    (``strict=False``): ``netsmf`` ignores ``propagate`` / ``downsample``.
    """
    return run_method(
        method,
        graph,
        seed=seed,
        strict=False,
        dimension=dimension,
        window=window,
        multiplier=multiplier,
        propagate=propagate,
        downsample=downsample,
        **knobs,
    )


def _resolve(
    dataset: Union[str, LabeledGraph], seed: int, labeled: bool = False
) -> LabeledGraph:
    from repro.telemetry import ledger

    bundle = (
        dataset if isinstance(dataset, LabeledGraph)
        else load_dataset(dataset, seed=seed)
    )
    if labeled and bundle.labels is None:
        raise EvaluationError(f"dataset {bundle.name!r} has no labels")
    ledger.set_dataset(bundle.name)
    return bundle


def cost_of(method: str, seconds: float) -> float:
    """Azure-pricing cost of one run (Table 2 methodology), rounded for tables."""
    key = method.lower()
    if key not in SYSTEM_INSTANCE:
        key = canonical_name(method)
    return round(estimate_cost(key, seconds), 6)


def run_method_comparison(
    dataset: Union[str, LabeledGraph],
    methods: Sequence[str],
    *,
    ratios: Sequence[float] = (0.1,),
    dimension: int = 32,
    window: int = 5,
    multiplier: float = 1.0,
    repeats: int = 2,
    seed: int = DEFAULT_SEED,
    **knobs: object,
) -> List[Row]:
    """Node-classification comparison (the Table 4 / Figure 4 shape).

    One row per method: time, cost, and Micro-/Macro-F1 (percent) per
    ratio.  ``knobs`` (``workers``, ``precision``, ...) ride
    :func:`dispatch_method` to every method that has them.
    """
    bundle = _resolve(dataset, seed, labeled=True)
    rows: List[Row] = []
    for method in methods:
        result = dispatch_method(
            method, bundle.graph, dimension=dimension, window=window,
            multiplier=multiplier, seed=seed, **knobs,
        )
        row: Row = {
            "method": method,
            "time_s": round(result.total_seconds, 3),
            "cost_$": cost_of(method, result.total_seconds),
        }
        for ratio in ratios:
            score = evaluate_node_classification(
                result.vectors, bundle.labels, ratio, repeats=repeats, seed=seed
            )
            row[f"micro@{ratio:g}"] = round(100 * score.micro_f1, 2)
            row[f"macro@{ratio:g}"] = round(100 * score.macro_f1, 2)
        rows.append(row)
    return rows


def run_link_prediction_comparison(
    dataset: Union[str, LabeledGraph],
    methods: Sequence[str],
    *,
    dimension: int = 32,
    window: int = 5,
    multiplier: float = 2.0,
    test_fraction: float = 0.02,
    num_negatives: int = 100,
    seed: int = DEFAULT_SEED,
    **knobs: object,
) -> List[Row]:
    """PBG-protocol comparison (the §5.2.1 table shape); ``knobs`` as in
    :func:`run_method_comparison`."""
    bundle = _resolve(dataset, seed)
    train, pos_u, pos_v = train_test_split_edges(
        bundle.graph, test_fraction, seed=seed
    )
    rows: List[Row] = []
    for method in methods:
        result = dispatch_method(
            method, train, dimension=dimension, window=window,
            multiplier=multiplier, seed=seed, **knobs,
        )
        metrics = evaluate_link_prediction(
            result.vectors, pos_u, pos_v, num_negatives=num_negatives,
            ks=(1, 10, 50), seed=seed,
        )
        rows.append(
            {
                "method": method,
                "time_s": round(result.total_seconds, 3),
                "cost_$": cost_of(method, result.total_seconds),
                "MR": round(metrics.mean_rank, 2),
                "MRR": round(metrics.mrr, 3),
                "HITS@10": round(metrics.hits[10], 3),
            }
        )
    return rows


def run_multiplier_sweep(
    dataset: Union[str, LabeledGraph],
    multipliers: Sequence[float],
    *,
    ratio: float = 0.1,
    dimension: int = 32,
    window: int = 10,
    repeats: int = 2,
    seed: int = DEFAULT_SEED,
) -> List[Row]:
    """The Figure-2 sweep: LightNE quality/time as M grows."""
    bundle = _resolve(dataset, seed, labeled=True)
    rows: List[Row] = []
    for multiplier in multipliers:
        result = dispatch_method(
            "lightne", bundle.graph, dimension=dimension, window=window,
            multiplier=multiplier, seed=seed,
        )
        score = evaluate_node_classification(
            result.vectors, bundle.labels, ratio, repeats=repeats, seed=seed
        )
        rows.append(
            {
                "M": f"{multiplier:g}Tm",
                "time_s": round(result.total_seconds, 3),
                "nnz": int(result.timer.get_counter("sparsifier", "distinct")),
                f"micro@{ratio:g}": round(100 * score.micro_f1, 2),
            }
        )
    return rows


def run_stage_breakdown(
    dataset: Union[str, LabeledGraph],
    configs: Sequence[tuple],
    *,
    dimension: int = 32,
    window: int = 10,
    seed: int = DEFAULT_SEED,
) -> List[Row]:
    """The Table-5 shape: per-stage seconds per (name, method, multiplier)."""
    bundle = _resolve(dataset, seed)
    rows: List[Row] = []
    for name, method, multiplier in configs:
        result = dispatch_method(
            method, bundle.graph, dimension=dimension, window=window,
            multiplier=multiplier if multiplier is not None else 1.0, seed=seed,
        )
        stages = result.timer.stages
        rows.append(
            {
                "method": name,
                "sparsifier_s": round(stages["sparsifier"], 3)
                if "sparsifier" in stages else None,
                "svd_s": round(stages.get("svd", 0.0), 3),
                "propagation_s": round(stages["propagation"], 3)
                if "propagation" in stages else None,
                "total_s": round(result.total_seconds, 3),
            }
        )
    return rows
