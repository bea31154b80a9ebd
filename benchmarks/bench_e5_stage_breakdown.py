"""E5 — Table 5: per-stage running-time breakdown.

Paper's Table 5 (OAG):

    config            sparsifier  rSVD      propagation
    LightNE-Large     32.8 min    49.9 min  8.1 min
    NetSMF (M=8Tm)    18 h        4 h       NA
    LightNE-Small     1.4 min     10.5 min  8.2 min
    ProNE+            NA          12.0 min  8.2 min

Expected *shape*: LightNE-Large's sparsifier stage is far cheaper than
NetSMF's per-sample budget would suggest (downsampling + hashing);
LightNE-Small's stage distribution mirrors ProNE+'s (SVD-dominated);
propagation cost is identical across configs that run it.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, load
from repro.experiments import run_stage_breakdown

WINDOW = 10


@pytest.fixture(scope="module")
def oag():
    return load("oag_like")


def test_e5_stage_breakdown(benchmark, table, oag):
    configs = [
        ("LightNE-Large", "lightne", 20.0),
        ("NetSMF (M=8Tm)", "netsmf", 8.0),
        ("LightNE-Small", "lightne", 0.1),
        ("ProNE+", "prone+", None),
    ]
    rows = benchmark.pedantic(
        lambda: run_stage_breakdown(
            oag, configs, dimension=32, window=WINDOW, seed=SEED
        ),
        rounds=1,
        iterations=1,
    )
    table(
        "E5 / Table 5 — stage breakdown on oag_like (paper: NetSMF "
        "sparsifier-dominated; Small SVD-dominated like ProNE+; NA = stage "
        "absent)",
        rows,
    )
    by_name = {r["method"]: r for r in rows}
    # NetSMF has no propagation stage; ProNE+ has no sparsifier stage.
    assert by_name["NetSMF (M=8Tm)"]["propagation_s"] is None
    assert by_name["ProNE+"]["sparsifier_s"] is None
    # LightNE-Small's sparsifier stage is tiny relative to Large's.
    assert (
        by_name["LightNE-Small"]["sparsifier_s"]
        < by_name["LightNE-Large"]["sparsifier_s"]
    )
    # Propagation cost is shared (same operator): within 5x of each other.
    small_prop = by_name["LightNE-Small"]["propagation_s"]
    prone_prop = by_name["ProNE+"]["propagation_s"]
    assert 0.2 < small_prop / prone_prop < 5.0
