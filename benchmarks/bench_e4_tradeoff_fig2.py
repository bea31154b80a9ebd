"""E4 — Figure 2: efficiency-effectiveness trade-off curve of LightNE.

The paper sweeps the sample budget M from 0.1Tm to 20Tm on OAG and plots F1
against running time, showing (a) a clean monotone-ish trade-off curve and
(b) that LightNE Pareto-dominates both ProNE+ and NetSMF.

Expected *shape*: F1 rises with the multiplier while time grows; the largest
configuration must beat the smallest by a clear margin.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, classification_row, embed, load
from repro.experiments import run_multiplier_sweep

MULTIPLIERS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
WINDOW = 10
RATIO = 0.1


@pytest.fixture(scope="module")
def oag():
    return load("oag_like")


def test_e4_tradeoff_curve(benchmark, table, oag):
    rows = benchmark.pedantic(
        lambda: run_multiplier_sweep(
            oag, MULTIPLIERS, ratio=RATIO, dimension=32, window=WINDOW,
            repeats=2, seed=SEED,
        ),
        rounds=1,
        iterations=1,
    )
    table(
        "E4 / Figure 2 — LightNE efficiency-effectiveness trade-off on "
        "oag_like (paper: monotone curve, user-tunable)",
        rows,
    )
    key = f"micro@{RATIO:g}"
    # Time grows with sample budget; quality at the top beats the bottom.
    assert rows[-1]["time_s"] > rows[0]["time_s"]
    assert rows[-1][key] >= rows[0][key]
    # The curve is broadly monotone: best of the top half >= best of the
    # bottom half.
    half = len(rows) // 2
    assert max(r[key] for r in rows[half:]) >= max(r[key] for r in rows[:half]) - 0.5


def test_e4_pareto_dominance(benchmark, table, oag):
    """LightNE offers a configuration at least as good and as fast as ProNE+
    (the Figure-2 Pareto claim, small end)."""
    def run():
        prone = embed("prone+", oag.graph, dimension=32, window=WINDOW)
        light = embed("lightne", oag.graph, dimension=32, window=WINDOW,
                      multiplier=0.5)
        key = f"micro@{RATIO:g}"
        rows = []
        for name, result in (("ProNE+", prone), ("LightNE (0.5Tm)", light)):
            row = {"method": name, "time_s": round(result.total_seconds, 2)}
            row.update(
                classification_row(result.vectors, oag.labels, (RATIO,), repeats=2)
            )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table("E4 / Figure 2 — Pareto check: small LightNE vs ProNE+", rows)
    prone, light = rows
    key = f"micro@{RATIO:g}"
    assert light[key] >= prone[key] - 2.0
