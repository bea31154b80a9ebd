"""E17 — sparsifier-backend ablation: PathSampling vs push-based PPR.

The sparsifier stage's sampler table makes the count-matrix estimator pluggable; this
experiment compares the two backends at *equal sample budgets M* on the
BlogCatalog analog, along the axes the paper uses for its own sparsifier
(§5.3): nnz of the count matrix, wall-clock, peak anonymous/RSS memory
(fresh process per configuration), and downstream micro-F1.  Every embed
lands in the run ledger with ``params.sparsifier`` set, so both backends
show up in the trajectory reports.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, classification_row, embed, load, run_probe

WINDOW = 5
MULTIPLIER = 2.0


@pytest.fixture(scope="module")
def bundle():
    return load("blogcatalog_like")


def _run(graph, sparsifier):
    return embed(
        "lightne", graph, dimension=32, window=WINDOW,
        multiplier=MULTIPLIER, sparsifier=sparsifier,
    )


def test_e17_quality_at_equal_budget(bundle, table):
    """Headline ablation: same M, same pipeline downstream — micro-F1 of the
    PPR estimator must be within 2 points of PathSampling (acceptance
    criterion; in practice the deterministic push is the better estimator
    at small budgets)."""
    rows = []
    micro = {}
    for sparsifier in ("path", "ppr"):
        result = _run(bundle.graph, sparsifier)
        assert result.info["sparsifier"] == sparsifier
        scores = classification_row(
            result.vectors, bundle.labels, (0.1, 0.5), repeats=2
        )
        micro[sparsifier] = scores["micro@0.5"]
        rows.append(
            {
                "sparsifier": sparsifier,
                "time_s": round(result.total_seconds, 3),
                "nnz": result.info["sparsifier_nnz"],
                **scores,
            }
        )
    table(
        f"E17 — sparsifier backends at equal budget "
        f"(blogcatalog_like, T={WINDOW}, M={MULTIPLIER:g}Tm)",
        rows,
    )
    assert micro["ppr"] >= micro["path"] - 2.0, (
        f"ppr micro@0.5 {micro['ppr']} more than 2 points below "
        f"path {micro['path']}"
    )


def test_e17_budget_sweep(bundle, table):
    """Quality vs budget per backend: PPR's deterministic push squeezes more
    estimator quality out of small M (its variance comes only from the
    final rounding), converging with PathSampling as M grows."""
    rows = []
    for multiplier in (0.5, 2.0, 8.0):
        row = {"M": f"{multiplier:g}Tm"}
        for sparsifier in ("path", "ppr"):
            result = embed(
                "lightne", bundle.graph, dimension=32, window=WINDOW,
                multiplier=multiplier, sparsifier=sparsifier,
            )
            scores = classification_row(
                result.vectors, bundle.labels, (0.5,), repeats=2
            )
            row[f"{sparsifier}_nnz"] = result.info["sparsifier_nnz"]
            row[f"{sparsifier}_micro@0.5"] = scores["micro@0.5"]
        rows.append(row)
    table("E17 — micro-F1 vs sample budget per backend", rows)
    assert len(rows) == 3


_MEMORY_PROBE = """
import json
from benchmarks.harness import SEED
from repro.datasets import load_dataset
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.telemetry.memory import MemorySampler
bundle = load_dataset("blogcatalog_like", seed=SEED)
params = LightNEParams(
    dimension=32, window=__WINDOW__, sample_multiplier=__MULTIPLIER__,
    sparsifier=__SPARSIFIER__,
)
with MemorySampler(0.005) as sampler:
    result = lightne_embedding(bundle.graph, params, seed=SEED)
p = sampler.profile
print(json.dumps(dict(
    anon=p.anon_peak_bytes, rss=p.rss_peak_bytes,
    nnz=int(result.info["sparsifier_nnz"]),
    time_s=result.total_seconds,
)))
"""


def test_e17_peak_memory(table):
    """Fresh interpreter per backend (high-water marks never shrink), same
    budget: peak anon/RSS of the full embed."""
    results = {}
    for sparsifier in ("path", "ppr"):
        script = (
            _MEMORY_PROBE
            .replace("__WINDOW__", str(WINDOW))
            .replace("__MULTIPLIER__", str(MULTIPLIER))
            .replace("__SPARSIFIER__", repr(sparsifier))
        )
        results[sparsifier] = run_probe(script)
    table(
        "E17 — peak memory per backend (fresh process per row, "
        f"blogcatalog_like, M={MULTIPLIER:g}Tm)",
        [
            {
                "sparsifier": name,
                "anon_peak_MiB": round(r["anon"] / 2**20, 1)
                if r["anon"] is not None else None,
                "rss_peak_MiB": round(r["rss"] / 2**20, 1)
                if r["rss"] is not None else None,
                "nnz": r["nnz"],
                "time_s": round(r["time_s"], 3),
            }
            for name, r in results.items()
        ],
    )
    for r in results.values():
        assert r["nnz"] > 0


def test_e17_ledger_records_backend(bundle):
    """Both backends' runs land in the ledger with params.sparsifier set —
    the key ``lightne report`` groups trajectories by."""
    from benchmarks.harness import RUNS_PATH
    from repro.telemetry import ledger

    for sparsifier in ("path", "ppr"):
        embed(
            "lightne", bundle.graph, dimension=16, window=3,
            multiplier=0.5, sparsifier=sparsifier,
        )
    records = ledger.RunLedger(RUNS_PATH).records()
    seen = {
        r.params.get("sparsifier")
        for r in records
        if r.method == "lightne" and r.dataset == "blogcatalog_like"
    }
    assert {"path", "ppr"} <= seen
