"""Experiment harness: programmatic regeneration of the paper's tables.

``lightne compare`` and the paper-table benchmarks E1 (link prediction), E4
(multiplier sweep), E5 (stage breakdown) and E8 (small-graph panels) call
the runners below and assert on the rows they return; users can run the same
comparisons from their own code:

>>> from repro.experiments import run_method_comparison
>>> rows = run_method_comparison("oag_like", ["prone+", "lightne"],
...                              ratios=(0.1,), dimension=16, window=3,
...                              multiplier=1.0)   # doctest: +SKIP
"""

from repro.experiments.runner import (
    run_link_prediction_comparison,
    run_method_comparison,
    run_multiplier_sweep,
    run_stage_breakdown,
)
from repro.utils.table import format_table

__all__ = [
    "format_table",
    "run_method_comparison",
    "run_link_prediction_comparison",
    "run_multiplier_sweep",
    "run_stage_breakdown",
]
