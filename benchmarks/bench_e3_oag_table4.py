"""E3 — Table 4: NetSMF vs ProNE+ vs LightNE-Small/Large on OAG.

Paper's Table 4 (T=10, Micro-F1 at ratios 0.001%-1%):

    NetSMF (M=8Tm)   22.4 h    30.4 - 38.9
    ProNE+           21 min    23.6 - 31.5
    LightNE-Small    20.9 min  23.9 - 32.4   (M = 0.1Tm, ~= ProNE+ time)
    LightNE-Large    1.53 h    44.5 - 55.2   (M = 20Tm, dominates everything)

Expected *shape* here: Large >= Small and Large >= NetSMF(8Tm) in F1 with
runtime between Small and NetSMF; Small lands within a whisker of ProNE+ in
both time and quality.  Label ratios scale to 2/5/10/30% so the splits on a
4k-vertex analog are non-degenerate.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import (
    SEED,
    classification_row,
    embed,
    load,
)

RATIOS = (0.02, 0.05, 0.1, 0.3)
WINDOW = 10

CONFIGS = [
    # (display name, method, multiplier)
    ("NetSMF (M=8Tm)", "netsmf", 8.0),
    ("ProNE+", "prone+", None),
    ("LightNE-Small", "lightne", 0.1),
    ("LightNE-Large", "lightne", 20.0),
]


@pytest.fixture(scope="module")
def oag():
    return load("oag_like")


@pytest.fixture(scope="module")
def results(oag):
    out = {}
    for name, method, multiplier in CONFIGS:
        out[name] = embed(
            method, oag.graph, dimension=32, window=WINDOW,
            multiplier=multiplier if multiplier is not None else 1.0,
        )
    return out


def test_e3_table4(benchmark, table, oag, results):
    def build_rows():
        rows = []
        for name, _, _ in CONFIGS:
            result = results[name]
            row = {"method": name, "time_s": round(result.total_seconds, 2)}
            row.update(
                classification_row(result.vectors, oag.labels, RATIOS, repeats=2)
            )
            row.update(
                classification_row(
                    result.vectors, oag.labels, RATIOS[-1:], metric="macro",
                    repeats=2,
                )
            )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    table(
        "E3 / Table 4 — OAG comparison (paper: LightNE-Large dominates, "
        "LightNE-Small ~= ProNE+ in time and slightly better F1)",
        rows,
    )
    by_name = {row["method"]: row for row in rows}
    top = f"micro@{RATIOS[-1]:g}"
    # LightNE-Large beats plain NetSMF at 8Tm (the paper's headline).
    assert by_name["LightNE-Large"][top] >= by_name["NetSMF (M=8Tm)"][top] - 1.0
    # LightNE-Large beats LightNE-Small.
    assert by_name["LightNE-Large"][top] >= by_name["LightNE-Small"][top] - 1.0
    # LightNE-Small is in ProNE+'s time class (same order of magnitude).
    assert by_name["LightNE-Small"]["time_s"] < 10 * by_name["ProNE+"]["time_s"]


def test_e3_lightne_large_beats_netsmf_macro(table, benchmark, oag, results):
    def build():
        macro = f"macro@{RATIOS[-1]:g}"
        return tuple(
            classification_row(
                results[name].vectors, oag.labels, RATIOS[-1:], metric="macro",
                repeats=2,
            )[macro]
            for name in ("LightNE-Large", "NetSMF (M=8Tm)")
        )

    large, netsmf = benchmark.pedantic(build, rounds=1, iterations=1)
    table(
        "E3 / Table 4 (macro) — LightNE-Large vs NetSMF Macro-F1 at top ratio "
        "(paper: +201.7% relative)",
        [{"method": "NetSMF (M=8Tm)", "macro": netsmf},
         {"method": "LightNE-Large", "macro": large}],
    )
    assert large >= netsmf - 1.0
