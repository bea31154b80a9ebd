"""E8 — Figure 4: predictive performance on the small graphs.

The paper sweeps the training ratio on BlogCatalog (10-90%) and YouTube
(1-10%) for six systems (GraphVite, PBG, NetSMF, ProNE+, NRP, LightNE) and
shows LightNE at or near the top of every panel, with ProNE+ consistently
below LightNE (propagating a weak base embedding is sub-optimal).

Expected *shape*: LightNE within noise of the best method at every ratio
and >= ProNE+ on average; all methods improve with more training data.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import SEED, load
from repro.experiments import run_method_comparison

METHODS = ("graphvite", "pbg", "netsmf", "prone+", "nrp", "lightne")

BLOGCATALOG_RATIOS = (0.1, 0.5, 0.9)
YOUTUBE_RATIOS = (0.02, 0.05, 0.1)


def _panel(dataset_name, ratios, window, multiplier):
    return run_method_comparison(
        load(dataset_name), METHODS, ratios=ratios, dimension=32,
        window=window, multiplier=multiplier, repeats=2, seed=SEED,
    )


def _check_panel(rows, ratios):
    by_method = {r["method"]: r for r in rows}
    top_key = f"micro@{ratios[-1]:g}"
    best = max(r[top_key] for r in rows)
    # LightNE at or near the top of the panel.
    assert by_method["lightne"][top_key] >= best - 5.0
    # LightNE >= ProNE+ (the paper highlights this ordering).
    light_avg = np.mean([by_method["lightne"][f"micro@{r:g}"] for r in ratios])
    prone_avg = np.mean([by_method["prone+"][f"micro@{r:g}"] for r in ratios])
    assert light_avg >= prone_avg - 2.0


def test_e8_blogcatalog(benchmark, table):
    rows = benchmark.pedantic(
        lambda: _panel("blogcatalog_like", BLOGCATALOG_RATIOS, window=10,
                       multiplier=5.0),
        rounds=1,
        iterations=1,
    )
    table(
        "E8 / Figure 4 (left) — Micro-F1 vs training ratio on "
        "blogcatalog_like, 6 systems (paper: LightNE best/near-best)",
        rows,
    )
    _check_panel(rows, BLOGCATALOG_RATIOS)


def test_e8_youtube(benchmark, table):
    rows = benchmark.pedantic(
        lambda: _panel("youtube_like", YOUTUBE_RATIOS, window=10, multiplier=5.0),
        rounds=1,
        iterations=1,
    )
    table(
        "E8 / Figure 4 (right) — Micro-F1 vs training ratio on youtube_like, "
        "6 systems (paper: LightNE/GraphVite lead; LightNE best at small "
        "ratios)",
        rows,
    )
    _check_panel(rows, YOUTUBE_RATIOS)
