"""``--trace 0``: what a user of ``lightne_embedding`` sees on one workload.

Closed loop, one run at a time, in the calling process — which the driver
(and the suite in ``__main__``) starts fresh for every measurement, so the
warm-up run doubles as the fresh-interpreter memory probe: nothing ran before
it whose high-water mark could mask its own.  Telemetry, health probes and
the ledger stay off throughout.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from repro.embedding.lightne import lightne_embedding
from repro.telemetry.memory import MemorySampler, current_anon_bytes

from benchmarks.perf import common
from benchmarks.perf.workloads import Prepared, Workload, prepare

MIB = float(1 << 20)


class RunLog:
    """Counts attempted/failed embedding runs and remembers why they failed."""

    def __init__(self, prepared: Prepared) -> None:
        graph, params = prepared.graph, prepared.params
        self.prepared = prepared
        self.shape = (graph.num_vertices, params.dimension)
        self.reference: Optional[np.ndarray] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {why}")

    def check(self, label: str, vectors: np.ndarray) -> bool:
        """Count one attempt and gate its output: finite, ``(n, d)``, and
        bit-identical to the first output that passed (the reference)."""
        self.attempted += 1
        why = common.embedding_problem(vectors, self.shape, self.reference)
        if why is not None:
            self.fail(label, why)
            return False
        if self.reference is None:
            self.reference = vectors
        return True

    def embed(self, label: str) -> Optional[Dict[str, float]]:
        """One checked library run; wall/CPU seconds, or ``None`` if it failed."""
        p = self.prepared
        cpu0, tic = common.cpu_seconds(), time.perf_counter()
        try:
            result = lightne_embedding(p.graph, p.params, p.pipeline_seed)
        except Exception:  # boundary: a failed run is a counted outcome
            self.attempted += 1
            self.fail(label, traceback.format_exc())
            return None
        wall = time.perf_counter() - tic
        cpu = common.cpu_seconds() - cpu0
        if not self.check(label, result.vectors):
            return None
        return {"wall": wall, "cpu": cpu}

    def check_quality(self) -> Dict[str, float]:
        """Score the reference embedding; under the floor is a failed run."""
        tic = time.perf_counter()
        score = float(self.prepared.score(self.reference))
        seconds = time.perf_counter() - tic
        if not score >= self.prepared.floor:
            self.fail("quality", f"{score:.4f} under floor {self.prepared.floor}")
        return {"score": score, "seconds": seconds}

    def outcome(self, metrics: Dict[str, dict], **extra: object) -> Dict[str, object]:
        """What one measurement hands to ``run.py``."""
        graph = self.prepared.graph
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "provenance": common.provenance(self.prepared.params),
            "graph": {"n": graph.num_vertices, "m": graph.num_edges},
            "metrics": metrics,
            **extra,
        }


def measure(
    workload: Workload, seed: int, seconds: float, min_runs: int,
    scratch_dir: str, quick: bool,
) -> Dict[str, object]:
    """Set up, warm up under the memory sampler, then time runs for ``seconds``."""
    setup_tic = time.perf_counter()
    prepared = prepare(workload, seed, scratch_dir, quick)
    log = RunLog(prepared)
    baseline = current_anon_bytes() or 0
    # Only the first run is sampled: later runs start from whatever the
    # allocator retained, so their high-water marks are not comparable.
    with MemorySampler(interval=0.005) as sampler:
        warm = log.embed("warm-up")
    setup_s = time.perf_counter() - setup_tic
    if warm is None:
        raise RuntimeError("warm-up run failed:\n" + "\n".join(log.problems))
    peak = sampler.profile.anon_peak_bytes
    if peak is None:
        raise RuntimeError("no anonymous-memory reading on this platform")

    walls: List[float] = []
    cpus: List[float] = []
    loop_tic = time.perf_counter()
    while len(walls) < min_runs or time.perf_counter() - loop_tic < seconds:
        timed = log.embed(f"timed run {len(walls) + 1}")
        if timed is None:
            if log.failed >= min_runs:  # a broken program fails every run
                break
            continue
        walls.append(timed["wall"])
        cpus.append(timed["cpu"])
    if not walls:
        raise RuntimeError("no timed run succeeded:\n" + "\n".join(log.problems))
    quality = log.check_quality()

    return log.outcome({
        "embed_wall_s": common.summarise(walls),
        "embed_cpu_s": common.summarise(cpus),
        "peak_anon_mib": {
            "value": (peak - baseline) / MIB,
            "baseline_mib": baseline / MIB,
            "sampler_samples": sampler.profile.num_samples,
        },
        "quality_score": {
            "value": quality["score"], "kind": workload.quality,
            "floor": prepared.floor,
        },
        "setup_s": {
            "value": setup_s, "warm_up_s": warm["wall"],
            **prepared.setup_pieces,
        },
    })
