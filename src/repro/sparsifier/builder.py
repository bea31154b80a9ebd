r"""From edge samples to the sparsified NetMF matrix (paper Eq. 1).

Estimator derivation
--------------------
Let ``A_r = A (D⁻¹A)^{r-1}`` (so ``D⁻¹ A_r D⁻¹ = (D⁻¹A)^r D⁻¹``).  For an
unweighted graph, a PathSampling draw seeded at a uniformly random oriented
edge with a uniform split position outputs the ordered pair ``(x, y)`` of a
length-``r`` path ``v_0 … v_r`` with probability

    P(path) = (1/vol(G)) · Π_{j=1}^{r-1} 1/d(v_j)

(the ``1/r`` split factor cancels against the ``r`` valid seed positions).
Summing over paths gives ``P(x, y) = A_r(x, y) / vol(G)`` — exactly the mass
of the ``r``-step walk matrix.  With ``M`` total draws, walk lengths uniform
on ``[1, T]``, and aggregated (downsample-reweighted) pair weights
``W(x, y)``,

    E[W(x, y)] = (M / (T · vol(G))) · Σ_{r=1}^T A_r(x, y),

so the sparsified Eq. (1) entry is

    M̂(x, y) = trunc_log( vol(G)² · W̄(x, y) / (b · M · d_x · d_y) )

where ``W̄`` is the symmetrized aggregate ``(W + Wᵀ)/2`` (the sampling law is
symmetric, so averaging the two orientations halves the variance for free).

Because only ``W̄`` is ever used, the sampler never tells the two
orientations apart: a draw is filed under its *unordered* endpoint pair, so
the count matrix holds one triangle — ``counts(x, y) = W(x, y) + W(y, x)``
for ``x < y``, ``counts(x, x) = W(x, x)`` — and ``(counts + countsᵀ)/2`` is
``W̄`` exactly, diagonal included.  (For the same reason a seed edge needs no
random orientation: the split is uniform, so walking ``s`` steps from one
end and ``r-1-s`` from the other has the same unordered law either way.)  A
self-loop is one diagonal entry of ``A`` where an edge is two off-diagonal
ones, so it is seeded with half an edge's mass;
``tests/contracts/test_estimator_unbiased.py`` checks the expectation above
entry by entry on weighted, self-loop, isolated-vertex and multi-component
graphs.

Weighted graphs
---------------
The derivation above generalizes verbatim when edges carry positive weights:
seeds are drawn proportional to edge weight (``n_e`` has expectation
``M·w_e/Σw`` — the stationary frequency a weighted walk traverses ``e``),
walk steps use weight-proportional transition probabilities, degrees and
``vol(G)`` become their weighted counterparts, and the downsampling
probability uses ``A_uv = w_e``.  The estimator is unchanged because
``P(x, y) = A_r(x, y)/vol(G)`` still holds entry-wise for the weighted walk
matrix.  What does *not* generalize is a weight of exactly zero: such an
edge can never be seeded yet still occupies a slot in every per-edge array,
and its downsampling probability degenerates to ``p_e = 0`` (an infinite
reweight if it ever survived) — :func:`validate_sparsifier_graph` rejects
those graphs with a typed :class:`~repro.errors.UnsupportedGraphError`
instead of silently producing a biased sparsifier.

The sampler
-----------
The ``"sparsifier"`` stage has one body, :func:`build_sparsifier`, and one
sampler, the Monte-Carlo estimator derived above
(:func:`~repro.sparsifier.path_sampling.sample_sparsifier_edges`,
Algorithm 2, which states its stats and its bit-identity across worker
counts).  The sampler folds each draw into its unordered
pair exactly once and hands over the *reduced* upper triangle — distinct
pairs ``rows <= cols`` in increasing ``row·n + col`` order with their summed
weights, ``M = draws`` realized — so the stage runs no aggregation pass of
its own: it builds the count matrix's ``indptr`` from that stream
(:func:`aggregate_to_counts`), whatever ``aggregator`` names.

Unbiasedness is checked entry by entry in
``tests/contracts/test_estimator_unbiased.py``; the spectral guarantee —
the sparsified walk polynomial is a ``(1 ± ε)``-approximation with ``ε``
falling like ``M^−½`` — in ``tests/contracts/test_spectral_sparsifier.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.errors import SamplingError, UnsupportedGraphError
from repro.graph import CSRGraph
from repro.linalg.kernels import scale_csr_columns, scale_csr_rows
from repro.sparsifier.aggregation import (
    aggregate_hash,
    aggregate_hash_sharded,
    aggregate_sort,
)
from repro.sparsifier.path_sampling import (
    DEFAULT_BATCH_SIZE,
    PathSamplingConfig,
    sample_sparsifier_edges,
)
from repro.telemetry import health
from repro.utils.parallel import default_workers, resolve_backend
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class SparsifierResult:
    """Aggregated sparsifier plus the bookkeeping the estimator needs.

    Attributes
    ----------
    counts:
        Sparse ``n × n`` upper-triangular matrix of aggregated sample
        weights — entry ``(x, y)``, ``x <= y``, holds every draw whose
        endpoints were the unordered pair ``{x, y}`` (not yet symmetrized
        or log-transformed), so :attr:`nnz` counts unordered pairs.
    num_draws:
        Realized number of PathSampling trials ``M`` before downsampling.
    window:
        The context window ``T`` used.
    stats:
        Construction counters: draws, walk samples (draws that survived the
        coin), batch count, resolved worker count, sampling/aggregation
        seconds, walk samples/sec, distinct pairs and the reducer's peak
        workspace bytes.
    """

    counts: sp.csr_matrix
    num_draws: int
    window: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def nnz(self) -> int:
        """Non-zeros retained in the sparsifier."""
        return self.counts.nnz


def trunc_log(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Entry-wise truncated logarithm ``max(0, log x)`` on stored entries.

    The paper stresses this step cannot be omitted (it is what separates
    NetMF/NetSMF from the NPR shortcut).  Entries with ``x <= 1`` vanish,
    which also re-sparsifies the matrix.
    """
    return _trunc_log_inplace(matrix.tocsr(copy=True))


def _trunc_log_inplace(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """:func:`trunc_log` overwriting ``matrix`` (which the caller owns)."""
    data = matrix.data
    keep = data > 1.0
    np.log(data, out=data, where=keep)
    data[~keep] = 0.0
    matrix.eliminate_zeros()
    return matrix


def validate_sparsifier_graph(graph: CSRGraph) -> bool:
    """Check ``graph`` is servable by the sparsifier's sampler.

    Returns ``True`` when the graph is weighted (the sampler then uses
    weight-aware seeding / weighted degrees) and ``False`` for the plain
    unweighted case.  Weighted graphs with zero-weight edges raise
    :class:`~repro.errors.UnsupportedGraphError` — see the module docstring:
    the estimator's seeding and downsampling laws degenerate there — and so
    do NaN or infinite weights, which memmapped loads do not check.
    """
    weights = graph.weights
    if weights is None:
        return False
    if not weights.size:
        return True
    # NaN propagates through min/max, so two reductions see every bad value.
    low, high = float(weights.min()), float(weights.max())
    if not (np.isfinite(low) and np.isfinite(high)):
        raise UnsupportedGraphError(
            "the sparsifier requires finite edge weights (got NaN or inf)"
        )
    if low <= 0.0:
        raise UnsupportedGraphError(
            "the sparsifier requires strictly positive edge weights on "
            "weighted graphs (zero-weight edges cannot be seeded and break "
            "the downsampling law); drop or reweight them first"
        )
    return True


def check_aggregator(aggregator: str) -> None:
    """Reject an ``aggregator`` outside ``"sort"``/``"hash"``/``"hash-sharded"``."""
    if aggregator not in ("sort", "hash", "hash-sharded"):
        raise SamplingError(f"unknown aggregator {aggregator!r}")


def aggregate_sample_counts(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    n: int,
    *,
    aggregator: str = "sort",
    workers: int = 1,
    backend: str = "thread",
    stats: Optional[Dict[str, float]] = None,
):
    """Merge sample triples into unique ``(rows, cols, vals)`` by name.

    The general entry point — any triples, duplicates or not (the E12/E15
    ablations feed it per-draw samples, the ``benchmarks/perf`` replay the
    sampler's stream).  The ``"sparsifier"`` stage never calls it: its
    stream arrives reduced (:func:`aggregate_to_counts`).

    ``aggregator`` selects ``"sort"`` (the default sort-reduce kernel; one
    serial pass, ``workers`` not consulted, output in row-major key order),
    or one of the §4.2 ablation variants: ``"hash"`` (shared table, serial)
    and ``"hash-sharded"`` (fixed 8-shard key partition mapped onto the
    thread pool).
    """
    check_aggregator(aggregator)
    # Checked only: the frozen benchmark replay still passes it.
    resolve_backend(backend)
    if aggregator == "hash":
        return aggregate_hash(u, v, w, n, stats=stats)
    if aggregator == "hash-sharded":
        # Fixed shard count: the decomposition (and hence the fp summation
        # order) must not depend on ``workers``, mirroring the batch_size
        # design in sampling.  Workers only map shards to threads.
        return aggregate_hash_sharded(
            u, v, w, n, workers=workers, num_shards=8, stats=stats
        )
    return aggregate_sort(u, v, w, n, stats=stats)


def aggregate_to_counts(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    *,
    aggregator: str,
    stats: Dict[str, float],
) -> sp.csr_matrix:
    """Assemble the ``n × n`` count matrix ``W`` from the sampler's stream.

    The back half of the ``"sparsifier"`` stage, under the
    ``sparsifier.aggregation`` span (which records the ``aggregator`` name);
    records ``aggregation_seconds`` and ``total_mass`` in ``stats``.  The
    stream arrives reduced by the sampler — distinct pairs in row-major key
    order — so it is a CSR matrix up to its ``indptr``: nothing re-aggregates it.
    """
    tic = time.perf_counter()
    with telemetry.span("sparsifier.aggregation", aggregator=aggregator):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        counts = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    stats["aggregation_seconds"] = time.perf_counter() - tic
    # Total retained mass: the health layer's contract check compares this
    # against the draw budget M (E[Σ W] = M for the estimator).
    stats["total_mass"] = float(counts.sum())
    return counts


def build_sparsifier(
    graph: CSRGraph,
    config: PathSamplingConfig,
    seed: SeedLike = None,
    *,
    aggregator: str = "sort",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SparsifierResult:
    """Sample and aggregate the count matrix ``W`` — the ``"sparsifier"``
    stage of every pipeline.

    Runs under :func:`repro.telemetry.stage` (Table 5's first column when a
    pipeline run is active); ``SparsifierResult.stats`` is written onto that
    stage span, which is where the run's stage table reads the sampling
    counters (samples/sec, batches, peak table bytes, workers) from.

    Parameters
    ----------
    graph:
        Input graph.
    config:
        Sampling parameters (window ``T``, sample budget ``M``, downsampling).
    aggregator:
        ``"sort"`` (default), ``"hash"`` or ``"hash-sharded"``, checked
        before anything is sampled and recorded on the stage's spans; it
        selects no code (:func:`aggregate_to_counts`).
    workers:
        Thread-pool width for sampling; ``None`` resolves to
        :func:`repro.utils.parallel.default_workers`.  For a fixed ``seed``
        and ``batch_size`` the result is bit-identical for every worker
        count.
    backend:
        ``"thread"`` (default) or ``"process"``; validated and recorded on
        the stage span.  Sampling runs on the thread pool either way (the
        name decides where the pipeline's propagation buffers live).
    batch_size:
        Draws (before the coin) per sampling slab.  The stage holds about
        ``13·workers·batch_size·8 B`` of slab workspace plus ``~6·nnz·16 B``
        of reduced runs — it follows the slab and the sparsifier's distinct
        pairs, not the budget ``M``.

    The numerical-health layer fingerprints the count matrix here (stage
    ``"sparsifier"``) and checks the estimator's total-mass contract
    ``E[Σ W] = M``; both are no-ops unless a pipeline installed an active
    :class:`~repro.telemetry.health.HealthRecorder`.
    """
    check_aggregator(aggregator)
    rng = ensure_rng(seed)
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    n = graph.num_vertices
    stats: Dict[str, float] = {}
    stats["weighted_seeding"] = float(validate_sparsifier_graph(graph))
    with telemetry.stage(
        "sparsifier", aggregator=aggregator, workers=workers, backend=backend,
    ) as stage:
        tic = time.perf_counter()
        with telemetry.span("sparsifier.sampling"):
            rows, cols, vals, draws = sample_sparsifier_edges(
                graph, config, rng, batch_size=batch_size, workers=workers,
                backend=backend, stats=stats,
            )
        stats["sampling_seconds"] = time.perf_counter() - tic
        stats["samples_per_sec"] = stats["walk_samples"] / max(
            stats["sampling_seconds"], 1e-12
        )
        counts = aggregate_to_counts(
            rows, cols, vals, n, aggregator=aggregator, stats=stats
        )
        stage.set_attributes(**stats)
    health.checkpoint("sparsifier", counts)
    health.check_sparsifier_mass(counts, draws)
    return SparsifierResult(
        counts=counts, num_draws=draws, window=config.window, stats=stats
    )


def check_negative_samples(negative_samples: float) -> None:
    """Reject a non-positive ``b`` (Eq. 1's negative-sample count)."""
    if negative_samples <= 0:
        raise SamplingError(f"negative_samples must be > 0, got {negative_samples}")


def sparsifier_to_netmf_matrix(
    graph: CSRGraph,
    result: SparsifierResult,
    *,
    negative_samples: float = 1.0,
) -> sp.csr_matrix:
    """Apply the estimator above: scale, symmetrize, trunc-log.

    Parameters
    ----------
    graph:
        The graph the sparsifier was built from (provides ``vol`` and ``D``).
    result:
        Output of :func:`build_sparsifier`.
    negative_samples:
        The ``b`` in Eq. (1) (skip-gram negative-sample count, default 1).
    """
    if result.num_draws <= 0:
        raise SamplingError("sparsifier has no samples")
    check_negative_samples(negative_samples)
    degrees = graph.weighted_degrees()
    if np.any(degrees <= 0):
        # Isolated vertices never appear in samples; give them degree 1 to
        # keep the diagonal scaling finite (their rows stay empty anyway).
        degrees = np.where(degrees > 0, degrees, 1.0)
    volume = graph.volume
    scale = volume * volume / (negative_samples * result.num_draws)

    # ((D⁻¹ · (W + Wᵀ)/2) · D⁻¹) · scale, entry by entry in that order, in
    # place on the one matrix the symmetrisation allocates.
    matrix = (result.counts + result.counts.T).tocsr()
    inv_d = 1.0 / degrees
    matrix.data *= 0.5
    scale_csr_rows(matrix, inv_d)
    scale_csr_columns(matrix, inv_d)
    matrix.data *= scale
    return _trunc_log_inplace(matrix)
