"""``--trace 1``: one row per layer underneath the end-to-end run.

Layers are named after the modules under ``src/repro`` and measured from
outside.  The *replay* re-executes the body of ``lightne_embedding`` by
calling the same public functions in the same order with the same
``Generator``, each call inside a span; it must reproduce the library run bit
for bit, which is what makes its per-layer times attributable.  Rows marked
*isolated* time one public function alone on operands captured from that
replay.  Throughput rows sit next to ceilings measured in the same process;
bytes are computed from array sizes (cache misses ignored) and say so.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.graph.csr import CSRGraph
from repro.graph.walks import step_random_walk
from repro.linalg.kernels import cholesky_qr, orthonormalize, spmm
from repro.linalg.randomized_svd import embedding_from_svd
from repro.linalg.single_pass import factorize
from repro.linalg.spectral import (
    chebyshev_gaussian_filter,
    propagation_operator,
    rescale_embedding,
    spectral_propagation,
)
from repro.sparsifier.aggregation import aggregate_sort
from repro.sparsifier.builder import (
    SparsifierResult,
    aggregate_sample_counts,
    sparsifier_to_netmf_matrix,
    validate_sparsifier_graph,
)
from repro.sparsifier.downsampling import graph_downsampling_probabilities
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges
from repro.telemetry import health
from repro.utils.parallel import default_workers
from repro.utils.rng import ensure_rng

from benchmarks.perf import common
from benchmarks.perf.endtoend import RunLog
from benchmarks.perf.spans import SpanLog
from benchmarks.perf.workloads import Workload, prepare, time_csr_v2_roundtrip

# rSVD's default oversampling: the sketch the SPMM/QR rows use is n x (d + 10).
RSVD_OVERSAMPLING = 10
WALKERS, WALK_STEPS = 1_000_000, 5
QUICK_WALKERS = 50_000


# --------------------------------------------------------------------- ceilings
def machine_ceilings(quick: bool) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Memory-copy bandwidth and GEMM rates of this machine, measured now.

    The copy arrays are at least four times the last-level cache (both sizes
    are returned) unless memory is short or ``quick`` is set; the copy runs
    on as many threads as the pipeline would use.  Bandwidth counts bytes
    read plus bytes written, the convention of every ``computed_gbs`` row.
    Returns the three ceiling rows and how they were measured.
    """
    llc = common.llc_bytes() or (32 << 20)
    nbytes = (8 << 20) if quick else 4 * llc
    try:
        with open("/proc/meminfo") as fh:
            available = next(
                int(line.split()[1]) * 1024
                for line in fh if line.startswith("MemAvailable:")
            )
        nbytes = min(nbytes, available // 6)
    except (OSError, StopIteration, ValueError):
        pass
    threads = default_workers()
    source = np.ones(nbytes // 8)
    target = np.empty_like(source)
    bounds = np.linspace(0, source.size, threads + 1).astype(np.int64)

    def copy_slice(i: int) -> None:
        np.copyto(target[bounds[i]:bounds[i + 1]], source[bounds[i]:bounds[i + 1]])

    with ThreadPoolExecutor(threads) as pool:
        def copy() -> None:
            list(pool.map(copy_slice, range(threads)))

        copy()  # first touch of the target pages is not bandwidth
        copy_s = common.median_seconds(copy, budget_s=float("inf"))
    del source, target

    order = 256 if quick else 2048
    rates = {"machine.memcpy_gbs": 2.0 * nbytes / copy_s / 1e9}
    for label, dtype in (("dgemm", np.float64), ("sgemm", np.float32)):
        a = np.ones((order, order), dtype=dtype)
        a @ a
        gemm_s = common.median_seconds(lambda: a @ a, budget_s=float("inf"))
        rates[f"machine.{label}_gflops"] = 2.0 * order ** 3 / gemm_s / 1e9
    return rates, {
        "copy_array_bytes": nbytes, "llc_bytes": llc,
        "copy_ge_4x_llc": nbytes >= 4 * llc, "copy_threads": threads,
        "gemm_order": order,
    }


# ----------------------------------------------------------------------- replay
def replay(prepared, spans: SpanLog) -> Dict[str, object]:
    """Re-execute ``_lightne_body`` through public calls, one span per call.

    Mirrors ``repro.embedding.lightne._lightne_body`` step for step (same RNG
    object threaded through, same resolved worker count, and the same object
    lifetimes: what the library frees before the next stage is freed here
    too, because held memory changes what the allocator does next).  Any
    drift from the library shows up as a failed bit-identity check, not as a
    silently different timing.
    """
    graph, params = prepared.graph, prepared.params
    with spans.span("embedding.replay"):
        rng = ensure_rng(prepared.pipeline_seed)
        sparsifier = _replay_sparsifier(graph, params, rng, spans)
        with spans.span("sparsifier.builder.netmf_matrix") as rec:
            matrix = sparsifier_to_netmf_matrix(
                graph, sparsifier, negative_samples=params.negative_samples
            )
            rec["counts"] = {"nnz_out": int(matrix.nnz)}
        with spans.span("linalg.factorize"):
            left, sigma, _ = factorize(
                matrix, params.dimension, factorizer=params.factorizer,
                seed=rng, precision=params.precision, workers=params.workers,
                symmetric=True,
            )
            svd_vectors = embedding_from_svd(left, sigma)
            del left, sigma
        with spans.span("linalg.spectral"):
            vectors = spectral_propagation(
                graph, svd_vectors, order=params.propagation_order,
                mu=params.mu, theta=params.theta, precision=params.precision,
                workers=params.workers, offload_dir=_offload_dir(params),
            )
    return {
        "counts": sparsifier.counts, "matrix": matrix,
        "svd_vectors": svd_vectors, "vectors": vectors,
    }


def _replay_sparsifier(graph, params, rng, spans: SpanLog) -> SparsifierResult:
    """The body of ``build_netmf_sparsifier``; its locals die on return."""
    n = graph.num_vertices
    workers = params.workers if params.workers is not None else default_workers()
    config = _sampling_config(graph, params)
    stats: Dict[str, float] = {}
    validate_sparsifier_graph(graph)
    with spans.span("sparsifier.path_sampling") as rec:
        u, v, w, draws = sample_sparsifier_edges(
            graph, config, rng, batch_size=params.batch_size,
            workers=workers, backend=params.backend, stats=stats,
        )
        rec["counts"] = {"draws": int(draws), "walk_samples": int(u.size)}
    with spans.span("sparsifier.aggregation") as rec:
        rows, cols, vals = aggregate_sample_counts(
            u, v, w, n, aggregator=params.aggregator, workers=workers,
            backend=params.backend, stats=stats,
        )
        rec["counts"] = {
            "pairs_in": int(u.size), "distinct": int(rows.size),
            "peak_table_bytes": int(stats.get("peak_table_bytes", 0)),
        }
    with spans.span("sparsifier.builder.csr_assembly") as rec:
        counts = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        rec["counts"] = {"nnz_in": int(counts.nnz)}
    return SparsifierResult(
        counts=counts, num_draws=draws, window=config.window, stats=stats
    )


def _csr_nbytes(matrix) -> int:
    """Bytes of a CSR matrix's three arrays (computed, each counted once)."""
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _sampling_config(graph, params) -> PathSamplingConfig:
    """The sampling configuration ``_lightne_body`` derives from the params."""
    return PathSamplingConfig(
        window=params.window,
        num_samples=PathSamplingConfig.samples_for_multiplier(
            graph, params.window, params.sample_multiplier
        ),
        downsample=params.downsample,
        downsample_constant=params.downsample_constant,
    )


def _offload_dir(params) -> Optional[str]:
    """Where ``_lightne_body`` spills the filter's buffers (process backend)."""
    return tempfile.gettempdir() if params.backend == "process" else None


# --------------------------------------------------------------------- isolated
def _isolated_rows(prepared, captured, spans: SpanLog, ceilings, quick: bool):
    """Time single public functions alone on the replay's operands."""
    graph, params = prepared.graph, prepared.params
    n = graph.num_vertices
    memcpy_gbs = ceilings["machine.memcpy_gbs"]
    rows: Dict[str, float] = {}

    # graph.walks: lock-step walkers started on edge endpoints (degree > 0).
    rng = np.random.default_rng(0)
    walkers = QUICK_WALKERS if quick else WALKERS
    starts = np.asarray(graph.targets)[rng.integers(0, graph.targets.size, walkers)]
    steps = np.full(walkers, WALK_STEPS, dtype=np.int64)
    walk_s = common.median_seconds(
        lambda: step_random_walk(graph, starts, steps, np.random.default_rng(1))
    )
    rows["graph.walks.step_random_walk.s"] = walk_s
    rows["graph.walks.step_random_walk.steps_per_s"] = walkers * WALK_STEPS / walk_s

    rows["sparsifier.downsampling.s"] = common.median_seconds(
        lambda: graph_downsampling_probabilities(
            graph, constant=params.downsample_constant
        )
    )

    # Sampling with one worker, against the replay's default-width call; its
    # output (identical to the replay's) feeds the sort-aggregation row.
    config = _sampling_config(graph, params)
    sampled: Dict[str, tuple] = {}
    serial_s = common.median_seconds(
        lambda: sampled.update(last=sample_sparsifier_edges(
            graph, config, ensure_rng(prepared.pipeline_seed),
            batch_size=params.batch_size, workers=1, backend=params.backend,
        ))
    )
    rows["sparsifier.path_sampling.speedup_w"] = serial_s / spans.seconds(
        "sparsifier.path_sampling"
    )
    u, v, w, _ = sampled.pop("last")
    rows["sparsifier.aggregation.sort.s"] = common.median_seconds(
        lambda: aggregate_sort(u, v, w, n)
    )
    del u, v, w

    # linalg.kernels on the n x (d + oversampling) block rSVD really uses.
    matrix = captured["matrix"]
    width = min(params.dimension + RSVD_OVERSAMPLING, n)
    block = np.random.default_rng(2).standard_normal((n, width))
    out = np.empty_like(block)
    spmm_s = common.median_seconds(
        lambda: spmm(matrix, block, out=out, workers=params.workers)
    )
    spmm_serial_s = common.median_seconds(
        lambda: spmm(matrix, block, out=out, workers=1)
    )
    moved = _csr_nbytes(matrix) + block.nbytes + out.nbytes
    rows["linalg.kernels.spmm.s"] = spmm_s
    rows["linalg.kernels.spmm.gflops"] = 2.0 * matrix.nnz * width / spmm_s / 1e9
    rows["linalg.kernels.spmm.computed_gbs"] = moved / spmm_s / 1e9
    rows["linalg.kernels.spmm.vs_ceiling"] = moved / spmm_s / 1e9 / memcpy_gbs
    rows["linalg.kernels.spmm.speedup_w"] = spmm_serial_s / spmm_s

    ortho_s = common.median_seconds(lambda: orthonormalize(out, strategy="qr"))
    # Householder QR + forming Q on an n x k block: 4nk^2 - (4/3)k^3 flops.
    qr_flops = 4.0 * n * width ** 2 - 4.0 * width ** 3 / 3.0
    rows["linalg.kernels.orthonormalize.s"] = ortho_s
    rows["linalg.kernels.orthonormalize.gflops"] = qr_flops / ortho_s / 1e9
    rows["linalg.kernels.orthonormalize.vs_ceiling"] = (
        qr_flops / ortho_s / 1e9 / ceilings["machine.dgemm_gflops"]
    )
    rows["linalg.kernels.cholesky_qr.s"] = common.median_seconds(
        lambda: cholesky_qr(out)
    )
    del block, out

    # linalg.spectral pieces.  The operator is memoised on the graph object,
    # so its build is timed on a clone that shares the arrays but not the memo.
    clone = CSRGraph(graph.offsets, graph.targets, graph.weights, check=False)
    tic = time.perf_counter()
    operator = propagation_operator(clone)
    rows["linalg.spectral.propagation_operator.s"] = time.perf_counter() - tic
    del clone

    svd_vectors = captured["svd_vectors"]
    order = params.propagation_order

    def run_filter(order: int, workers) -> np.ndarray:
        return chebyshev_gaussian_filter(
            graph, svd_vectors, order=order, mu=params.mu, theta=params.theta,
            precision=params.precision, workers=workers,
            offload_dir=_offload_dir(params),
        )

    filtered: Dict[str, np.ndarray] = {}
    filter_s = common.median_seconds(
        lambda: filtered.update(last=run_filter(order, params.workers))
    )
    filter_serial_s = common.median_seconds(lambda: run_filter(order, 1))
    # order 2 is "first term + final hop"; every further order adds one term.
    short_s = common.median_seconds(lambda: run_filter(2, params.workers))
    products = 2 * (order - 1) + 1
    d = svd_vectors.shape[1]
    dense_bytes = 2 * n * d * svd_vectors.itemsize
    filter_gbs = products * (_csr_nbytes(operator) + dense_bytes) / filter_s / 1e9
    rows["linalg.spectral.filter.s"] = filter_s
    rows["linalg.spectral.filter.term_s"] = (filter_s - short_s) / max(1, order - 2)
    rows["linalg.spectral.filter.gflops"] = (
        products * 2.0 * operator.nnz * d / filter_s / 1e9
    )
    rows["linalg.spectral.filter.vs_ceiling"] = filter_gbs / memcpy_gbs
    rows["linalg.spectral.filter.speedup_w"] = filter_serial_s / filter_s
    rows["linalg.spectral.rescale.s"] = common.median_seconds(
        lambda: rescale_embedding(filtered["last"], d)
    )
    del filtered

    # telemetry.health: the digest that --health record adds per stage.
    final = captured["vectors"]
    digest_bytes = _csr_nbytes(matrix) + final.nbytes
    digest_s = common.median_seconds(
        lambda: (health.fingerprint("m", matrix), health.fingerprint("x", final))
    )
    rows["telemetry.health.fingerprint.gbs"] = digest_bytes / digest_s / 1e9
    rows["telemetry.health.fingerprint.vs_ceiling"] = (
        digest_bytes / digest_s / 1e9 / memcpy_gbs
    )
    return rows


# ------------------------------------------------------------- telemetry rounds
def _overhead_rounds(log: RunLog, rounds: int) -> Dict[str, List[float]]:
    """Interleaved library runs: plain, tracer on, health recording."""
    walls: Dict[str, List[float]] = {"off": [], "tracer": [], "health": []}
    for _ in range(rounds):
        for mode in walls:
            if mode == "tracer":
                telemetry.enable()
            try:
                with health.policy_scope("record" if mode == "health" else "off"):
                    timed = log.embed(f"{mode} run")
            finally:
                telemetry.disable()
            if timed is not None:
                walls[mode].append(timed["wall"])
    return walls


def _ratio(on: List[float], off: List[float]) -> Tuple[float, bool]:
    """Ratio of medians, and whether it stands clear of the off runs' spread."""
    base = statistics.median(off)
    ratio = statistics.median(on) / base
    if len(off) < 2:
        return ratio, False
    resolved = abs(statistics.median(on) - base) > (max(off) - min(off))
    return ratio, resolved


# ------------------------------------------------------------------------ entry
def measure(
    workload: Workload, seed: int, rounds: int, scratch_dir: str, quick: bool,
) -> Dict[str, object]:
    """Warm up, run the overhead rounds, replay under spans, isolate kernels."""
    prepared = prepare(workload, seed, scratch_dir, quick)
    pieces = dict(prepared.setup_pieces)
    if not workload.on_disk:  # every workload reports the io rows
        pieces.update(time_csr_v2_roundtrip(
            prepared.graph, os.path.join(scratch_dir, "roundtrip.csrv2")
        ))
    log = RunLog(prepared)
    if log.embed("warm-up") is None:
        raise RuntimeError("warm-up run failed:\n" + "\n".join(log.problems))
    walls = _overhead_rounds(log, rounds)
    if not all(walls.values()):
        raise RuntimeError("an overhead run failed:\n" + "\n".join(log.problems))

    spans = SpanLog(run_id=f"{workload.name}/seed{seed}/replay")
    captured = replay(prepared, spans)
    log.check("traced replay", captured["vectors"])
    quality = log.check_quality()

    ceilings, how_measured = machine_ceilings(quick)
    rows: Dict[str, float] = {**ceilings, **pieces}
    rows.update(_isolated_rows(prepared, captured, spans, ceilings, quick))

    by_name = {s["name"]: s for s in spans.spans}
    sampling = by_name["sparsifier.path_sampling"]["counts"]
    aggregation = by_name["sparsifier.aggregation"]["counts"]
    nnz_in = by_name["sparsifier.builder.csr_assembly"]["counts"]["nnz_in"]
    nnz_out = by_name["sparsifier.builder.netmf_matrix"]["counts"]["nnz_out"]
    sampling_s = spans.seconds("sparsifier.path_sampling")
    aggregation_s = spans.seconds("sparsifier.aggregation")
    symmetric_nnz = (captured["counts"] + captured["counts"].T).nnz
    replay_s = spans.seconds("embedding.replay")
    self_s = spans.self_seconds()
    tracer_ratio, tracer_resolved = _ratio(walls["tracer"], walls["off"])
    health_ratio, health_resolved = _ratio(walls["health"], walls["off"])
    rows.update({
        "sparsifier.path_sampling.s": sampling_s,
        "sparsifier.path_sampling.draws": sampling["draws"],
        "sparsifier.path_sampling.walk_samples": sampling["walk_samples"],
        "sparsifier.path_sampling.keep_ratio":
            sampling["walk_samples"] / sampling["draws"],
        "sparsifier.path_sampling.samples_per_s":
            sampling["walk_samples"] / sampling_s,
        "sparsifier.aggregation.s": aggregation_s,
        "sparsifier.aggregation.pairs_per_s":
            aggregation["pairs_in"] / aggregation_s,
        "sparsifier.aggregation.distinct_ratio":
            aggregation["distinct"] / max(1, aggregation["pairs_in"]),
        "sparsifier.aggregation.peak_table_bytes":
            aggregation["peak_table_bytes"],
        "sparsifier.builder.netmf_matrix.s":
            spans.seconds("sparsifier.builder.csr_assembly")
            + spans.seconds("sparsifier.builder.netmf_matrix"),
        "sparsifier.builder.netmf_matrix.nnz_in": nnz_in,
        "sparsifier.builder.netmf_matrix.nnz_out": nnz_out,
        "sparsifier.builder.netmf_matrix.kept_ratio":
            nnz_out / max(1, symmetric_nnz),
        "linalg.factorize.s": spans.seconds("linalg.factorize"),
        "linalg.spectral.s": spans.seconds("linalg.spectral"),
        "embedding.replay.s": replay_s,
        "embedding.unattributed_share": self_s["embedding.replay"] / replay_s,
        "embedding.trace_overhead_ratio":
            replay_s / statistics.median(walls["off"]),
        "telemetry.tracer.overhead_ratio": tracer_ratio,
        "telemetry.health.overhead_ratio": health_ratio,
        "eval.s": quality["seconds"],
    })
    return log.outcome(
        {name: {"value": float(value)} for name, value in rows.items()},
        notes={
            "machine": how_measured,
            "overhead_walls_s": walls,
            "telemetry.tracer.overhead_ratio":
                "resolved" if tracer_resolved else "unresolved",
            "telemetry.health.overhead_ratio":
                "resolved" if health_resolved else "unresolved",
            "quality_score": quality["score"],
            "self_seconds": self_s,
        },
        spans=spans.spans,
    )
