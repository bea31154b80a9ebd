"""The four workloads: what graph, what parameters, what counts as correct.

Each workload drives the default ``lightne`` pipeline and is sized so that a
different Table-5 stage dominates its wall time on a 2-core box (the measured
shares are in README.md).  Sizes are fixed here and nowhere else: ``--seed S``
only picks the graph sample (``S``) and the pipeline seed (``S + 1``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.embedding.lightne import LightNEParams
from repro.eval.link_prediction import link_prediction_auc, train_test_split_edges
from repro.eval.node_classification import evaluate_node_classification
from repro.graph.generators import dcsbm_graph, rmat_graph
from repro.graph.io import load_csr_v2, save_csr_v2

# Seed of the evaluation protocol (splits, negative samples): fixed so that
# quality_score is a deterministic function of the embedding.
QUALITY_SEED = 7
HELD_OUT_EDGES = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generator arguments, pipeline parameters, gate."""

    name: str
    generator: str            # "dcsbm" or "rmat"
    size: tuple               # positional generator arguments
    quick_size: tuple         # same, for the non-comparable --quick smoke run
    avg_degree: Optional[float]
    params: LightNEParams
    quality: str              # "micro_f1" (labelled) or "auc" (held-out edges)
    floor: float              # quality_score below this is a failed run
    on_disk: bool = False     # save as CSR v2 and load memmapped


@dataclass
class Prepared:
    """A generated workload: the only things the program under test sees."""

    graph: object
    params: LightNEParams
    pipeline_seed: int
    score: Callable[[np.ndarray], float]
    floor: float
    setup_pieces: Dict[str, float]   # seconds per set-up layer call


_NPROC = os.cpu_count() or 1

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # The paper's own Table-5 shape: walks + hash aggregation are
            # ~3/4 of the run (M = 5Tm draws), so sampling, aggregation and
            # hash-table changes show here and not on the next two.
            name="sample_heavy",
            generator="dcsbm", size=(10_000, 40), quick_size=(1_500, 10),
            avg_degree=20.0,
            params=LightNEParams(
                dimension=32, window=10, sample_multiplier=5.0, workers=None
            ),
            quality="micro_f1", floor=0.62,
        ),
        Workload(
            # d=128 rSVD (SPMM on the NetMF matrix + n x 138
            # orthonormalisation) is ~2/3 of the run: linalg.kernels,
            # randomized_svd and single_pass changes show here.
            name="factorize_heavy",
            generator="dcsbm", size=(30_000, 40), quick_size=(2_000, 10),
            avg_degree=16.0,
            params=LightNEParams(
                dimension=128, window=5, sample_multiplier=1.0, workers=None
            ),
            quality="micro_f1", floor=0.62,
        ),
        Workload(
            # Dense graph, LightNE-Small sparsifier (M = 0.1Tm): the
            # order-10 Chebyshev filter over A is over half the run, so
            # linalg.spectral and threaded-SPMM changes show here.
            name="propagate_heavy",
            generator="dcsbm", size=(36_000, 40), quick_size=(1_500, 10),
            avg_degree=120.0,
            params=LightNEParams(
                dimension=64, window=10, sample_multiplier=0.1, workers=None
            ),
            quality="micro_f1", floor=0.62,
        ),
        Workload(
            # The same three layers on the other substrate: process-pool
            # sampling over a memmapped R-MAT graph, shared-memory sharded
            # aggregation, chunked SPMM over temp-file memmaps.  A gain for
            # the thread path that costs the process path (or a leak in
            # /dev/shm) shows here; also the only skewed-degree,
            # link-prediction workload.
            name="out_of_core",
            generator="rmat", size=(16, 6), quick_size=(10, 8),
            avg_degree=None,
            params=LightNEParams(
                dimension=32, window=5, sample_multiplier=2.0,
                backend="process", workers=min(2, _NPROC),
                aggregator="hash-sharded",
            ),
            quality="auc", floor=0.78, on_disk=True,
        ),
    )
}

# The --quick graphs are too small for the quality floors to mean anything;
# the gate stays wired with floors any non-degenerate embedding clears.
QUICK_FLOORS = {"micro_f1": 0.2, "auc": 0.55}


def prepare(workload: Workload, seed: int, scratch_dir: str, quick: bool) -> Prepared:
    """Generate the workload's inputs from ``seed`` (same seed, same inputs)."""
    size = workload.quick_size if quick else workload.size
    pieces: Dict[str, float] = {}
    tic = time.perf_counter()
    if workload.generator == "dcsbm":
        graph, labels = dcsbm_graph(
            *size, avg_degree=workload.avg_degree, mixing=0.2,
            labels_per_node=2, seed=seed,
        )
    else:
        graph, labels = rmat_graph(*size, seed=seed), None
    pieces["graph.generators.s"] = time.perf_counter() - tic

    if workload.quality == "micro_f1":
        def score(vectors: np.ndarray) -> float:
            return evaluate_node_classification(
                vectors, labels, 0.1, repeats=2, seed=QUALITY_SEED
            ).micro_f1
    else:
        full = graph
        graph, test_src, test_dst = train_test_split_edges(
            full, HELD_OUT_EDGES, seed
        )

        def score(vectors: np.ndarray) -> float:
            # Negatives are non-edges of the *full* graph, so a held-out
            # edge can never be drawn as a negative.
            return link_prediction_auc(
                vectors, full, test_src, test_dst, seed=QUALITY_SEED
            )

    if workload.on_disk:
        path = os.path.join(scratch_dir, f"{workload.name}.csrv2")
        pieces.update(time_csr_v2_roundtrip(graph, path))
        graph = load_csr_v2(path, mmap=True)

    floor = QUICK_FLOORS[workload.quality] if quick else workload.floor
    return Prepared(
        graph=graph, params=workload.params,
        pipeline_seed=seed + 1, score=score, floor=floor, setup_pieces=pieces,
    )


def time_csr_v2_roundtrip(graph, path: str) -> Dict[str, float]:
    """Seconds to ``save_csr_v2`` and to ``load_csr_v2(mmap=True)`` at ``path``."""
    tic = time.perf_counter()
    save_csr_v2(graph, path)
    saved = time.perf_counter()
    load_csr_v2(path, mmap=True)
    return {
        "graph.io.save_csr_v2.s": saved - tic,
        "graph.io.load_csr_v2.s": time.perf_counter() - saved,
    }
