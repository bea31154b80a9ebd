"""Numerical-health layer: stage fingerprints and correctness probes.

The rest of the telemetry stack observes *performance* — spans time stages,
counters count work, the ledger persists both.  This module observes
*correctness*: every :func:`repro.embedding.base.run_pipeline` stage boundary
gets a cheap content fingerprint (:class:`StageDigest` — an order/dtype-stable
SHA-256 digest of the stage's output array or CSR matrix plus summary stats:
Frobenius norm, nnz, min/max, non-finite count), and the numeric contracts
the pipeline rests on get explicit probes:

* **sparsifier total mass** — the estimator derivation in
  :mod:`repro.sparsifier.builder` gives ``E[Σ W(x, y)] = M`` (the realized
  draw budget), so ``counts.sum()`` drifting far from ``num_draws`` flags a
  broken seeding/reweighting law;
* **factorization residual** — a posterior probe-vector estimate of
  ``‖A·g − U·Σ·Vᵀ·g‖ / ‖A·g‖`` after :func:`repro.linalg.randomized_svd.
  factorize`, computed with a *fixed internal seed* so the probe never
  perturbs the pipeline's RNG stream;
* **finiteness** — every checkpointed stage output, plus a fail-fast guard
  on the final embedding in ``run_pipeline``.

Digest machinery respects the library's determinism contract: canonical
byte encodings (C-contiguous, native-endian, CSR with sorted indices and
summed duplicates) mean bit-identical stage outputs — which the library
guarantees at every ``workers`` count and both ``backend`` residencies —
hash to identical digests.

Policy
------
Behaviour on a failed probe is governed by a process-level policy
(``off`` / ``record`` / ``warn`` / ``raise``), set via :func:`set_policy`
(what the CLI's ``--health`` flag calls) or the ``REPRO_HEALTH`` environment
variable.  ``off`` (default) skips all digest/probe work; ``record`` keeps
results silently; ``warn`` logs failures; ``raise`` throws a typed
:class:`~repro.errors.NumericalHealthError`.

Results flow one way: from the run's recorder (``EmbeddingResult.run.health``)
into the ``health`` and ``digests`` blocks of the ledger
:class:`~repro.telemetry.ledger.RunRecord`, which ``lightne audit``
(:mod:`repro.telemetry.audit`) diffs to localize the first diverging stage
between two runs.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import NumericalHealthError
from repro.telemetry.run import active_run
from repro.utils.log import get_logger

logger = get_logger(__name__)

POLICIES = ("off", "record", "warn", "raise")
ENV_POLICY = "REPRO_HEALTH"

# Hex chars of SHA-256 kept per digest (64+ bits — ample for run diffing
# while keeping ledger lines compact).
DIGEST_HEX_CHARS = 16

# Sparsifier total-mass probe: |counts.sum() - M| / M beyond this trips the
# probe.  The Monte-Carlo estimator's relative deviation is O(1/sqrt(M)) so
# real drifts are orders of magnitude past this.
MASS_RTOL = 0.25

# Factorization residual probe: number of Gaussian probe vectors and the
# dedicated seed (NEVER the pipeline RNG — consuming ctx.rng here would
# change every downstream draw and break bit-determinism).
RESIDUAL_PROBES = 4
RESIDUAL_SEED = 0x1D9E
# A truncated factorization of a full-rank NetMF matrix legitimately leaves
# a large relative residual; a value at/above ~1 means the factors carry no
# signal at all (or are non-finite) — that is what the probe flags.
RESIDUAL_THRESHOLD = 1.25


# ---------------------------------------------------------------------------
# Policy state (module-level, mirroring the ledger's opt-in pattern).
# ---------------------------------------------------------------------------

_policy_lock = threading.Lock()
_policy: Optional[str] = None


def _validate_policy(policy: str, source: str = "health policy") -> str:
    policy = str(policy).strip().lower()
    if policy not in POLICIES:
        raise ValueError(f"{source} must be one of {POLICIES}, got {policy!r}")
    return policy


def set_policy(policy: str) -> None:
    """Set the process-wide health policy (what ``--health`` does)."""
    global _policy
    validated = _validate_policy(policy)
    with _policy_lock:
        _policy = validated


def clear_policy() -> None:
    """Revert to the environment/default policy."""
    global _policy
    with _policy_lock:
        _policy = None


def get_policy() -> str:
    """The effective policy: :func:`set_policy` > ``REPRO_HEALTH`` > off.

    An unset or empty ``REPRO_HEALTH`` means off; any other value must be a
    policy name (a ``ValueError`` naming the variable otherwise)."""
    if _policy is not None:
        return _policy
    env = os.environ.get(ENV_POLICY, "").strip()
    return _validate_policy(env, ENV_POLICY) if env else "off"


@contextmanager
def policy_scope(policy: str) -> Iterator[None]:
    """Temporarily force a policy (test/benchmark discipline)."""
    global _policy
    with _policy_lock:
        previous = _policy
        _policy = _validate_policy(policy)
    try:
        yield
    finally:
        with _policy_lock:
            _policy = previous


# ---------------------------------------------------------------------------
# Content digests.
# ---------------------------------------------------------------------------


@dataclass
class StageDigest:
    """One stage output's content fingerprint plus summary statistics."""

    stage: str
    digest: str
    kind: str                       # "dense" | "csr"
    shape: Tuple[int, ...]
    dtype: str
    nnz: int
    norm: float
    vmin: float
    vmax: float
    nonfinite: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (what the ledger's ``health`` block holds)."""
        return {
            "stage": self.stage,
            "digest": self.digest,
            "kind": self.kind,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "nnz": self.nnz,
            "norm": self.norm,
            "min": self.vmin,
            "max": self.vmax,
            "nonfinite": self.nonfinite,
        }


def _canonical_array(arr: np.ndarray) -> np.ndarray:
    """C-contiguous, native-endian view/copy — the hashable canonical form."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder not in ("=", "|", _NATIVE_ORDER):
        arr = arr.astype(arr.dtype.newbyteorder("="))
    return arr


_NATIVE_ORDER = "<" if np.little_endian else ">"


def _value_stats(data: np.ndarray) -> Tuple[int, float, float, float, int]:
    """``(nnz, norm, min, max, nonfinite)`` of a flat value array."""
    data = data.ravel()
    if data.size == 0:
        return 0, 0.0, 0.0, 0.0, 0
    as64 = data.astype(np.float64, copy=False)
    nonfinite = int(data.size - np.count_nonzero(np.isfinite(as64)))
    finite = as64 if not nonfinite else as64[np.isfinite(as64)]
    # np.dot is a single fused BLAS pass — measurably cheaper than
    # sum(square(...)) on the multi-MB stage operands hashed per checkpoint.
    norm = float(np.sqrt(np.dot(finite, finite))) if finite.size else 0.0
    vmin = float(finite.min()) if finite.size else float("nan")
    vmax = float(finite.max()) if finite.size else float("nan")
    return int(np.count_nonzero(data)), norm, vmin, vmax, nonfinite


def digest_dense(stage: str, array: np.ndarray) -> StageDigest:
    """Fingerprint a dense array (content + shape/dtype, order-stable)."""
    arr = _canonical_array(np.asarray(array))
    h = hashlib.sha256()
    h.update(f"dense|{arr.shape}|{arr.dtype.str}".encode("ascii"))
    # The canonical array is C-contiguous, so it feeds the hash through the
    # buffer protocol directly — no tobytes() copy of a multi-MB operand.
    h.update(arr)
    nnz, norm, vmin, vmax, nonfinite = _value_stats(arr)
    return StageDigest(
        stage=stage,
        digest=h.hexdigest()[:DIGEST_HEX_CHARS],
        kind="dense",
        shape=tuple(int(s) for s in arr.shape),
        dtype=str(arr.dtype),
        nnz=nnz,
        norm=norm,
        vmin=vmin,
        vmax=vmax,
        nonfinite=nonfinite,
    )


def digest_csr(stage: str, matrix: sp.spmatrix) -> StageDigest:
    """Fingerprint a sparse matrix in canonical CSR form.

    Canonicalization (sorted indices, summed duplicates) makes the digest a
    function of the matrix's *content*, not of how its triplets happened to
    be ordered — two bit-identical operands always agree, and two structurally
    equal matrices built through different aggregation orders agree too
    (their float data must still match bit-for-bit).
    """
    m = matrix.tocsr()
    if not (m.has_canonical_format and m.has_sorted_indices):
        m = m.copy()
        m.sum_duplicates()
        m.sort_indices()
    data = _canonical_array(m.data)
    h = hashlib.sha256()
    h.update(f"csr|{m.shape}|{data.dtype.str}".encode("ascii"))
    # Index arrays normalize to int64 so scipy's int32/int64 choice never
    # changes a digest; all three arrays hash via the buffer protocol.
    h.update(_canonical_array(m.indptr.astype(np.int64, copy=False)))
    h.update(_canonical_array(m.indices.astype(np.int64, copy=False)))
    h.update(data)
    nnz, norm, vmin, vmax, nonfinite = _value_stats(data)
    return StageDigest(
        stage=stage,
        digest=h.hexdigest()[:DIGEST_HEX_CHARS],
        kind="csr",
        shape=tuple(int(s) for s in m.shape),
        dtype=str(data.dtype),
        nnz=int(m.nnz),
        norm=norm,
        vmin=vmin,
        vmax=vmax,
        nonfinite=nonfinite,
    )


def fingerprint(stage: str, value) -> StageDigest:
    """Dispatch on operand kind (sparse → CSR digest, anything else dense)."""
    if sp.issparse(value):
        return digest_csr(stage, value)
    return digest_dense(stage, value)


# ---------------------------------------------------------------------------
# Probe results and the per-run recorder.
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    """One numerical-health probe's verdict."""

    name: str
    stage: str
    value: float
    ok: bool
    threshold: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "stage": self.stage,
            "value": self.value,
            "ok": self.ok,
            "threshold": self.threshold,
            "detail": self.detail,
        }


class HealthRecorder:
    """Collects one pipeline run's digests and probe results.

    Created by :func:`repro.embedding.base.run_pipeline` (one per run) and
    hung on the run's root span (``root.health``), so lower layers
    (sparsifier dispatcher, factorizer) reach it through the active run and
    the module-level :func:`checkpoint` / probe helpers without any
    plumbing.  With policy ``off`` every entry point is a cheap no-op.
    """

    def __init__(self, policy: Optional[str] = None) -> None:
        self.policy = _validate_policy(policy) if policy else get_policy()
        self.digests: List[StageDigest] = []
        self.probes: List[ProbeResult] = []

    @property
    def enabled(self) -> bool:
        """Whether this recorder computes anything at all."""
        return self.policy != "off"

    @property
    def ok(self) -> bool:
        """True when no probe failed (vacuously true with no probes)."""
        return all(p.ok for p in self.probes)

    def _unique_stage(self, stage: str) -> str:
        seen = {d.stage for d in self.digests}
        if stage not in seen:
            return stage
        index = 2
        while f"{stage}#{index}" in seen:
            index += 1
        return f"{stage}#{index}"

    def checkpoint(self, stage: str, value) -> Optional[StageDigest]:
        """Fingerprint ``value`` as the output of ``stage``.

        The digest lands in this recorder's :meth:`summary` /
        :meth:`digest_map`, the ledger's ``health``/``digests`` blocks; a
        non-finite entry count additionally registers a failed ``finite``
        probe carrying the count (policy handling applies).  The
        ``health.nonfinite`` counter is not touched here: ``run_pipeline``'s
        guard counts the final embedding once, whatever the policy.
        """
        if not self.enabled:
            return None
        digest = fingerprint(self._unique_stage(stage), value)
        self.digests.append(digest)
        if digest.nonfinite:
            self.record_probe(
                ProbeResult(
                    name="finite",
                    stage=digest.stage,
                    value=float(digest.nonfinite),
                    ok=False,
                    threshold=0.0,
                    detail=(
                        f"{digest.nonfinite} non-finite entries in "
                        f"{digest.kind} output of shape {digest.shape}"
                    ),
                )
            )
        return digest

    def record_probe(self, probe: ProbeResult) -> ProbeResult:
        """Register a probe result and apply the policy to failures."""
        self.probes.append(probe)
        if not probe.ok:
            message = (
                f"numerical-health probe {probe.name!r} failed at stage "
                f"{probe.stage!r}: value={probe.value:g}"
                + (f" threshold={probe.threshold:g}" if probe.threshold is not None else "")
                + (f" ({probe.detail})" if probe.detail else "")
            )
            if self.policy == "raise":
                raise NumericalHealthError(message)
            if self.policy == "warn":
                logger.warning(message)
        return probe

    def summary(self) -> Dict[str, object]:
        """The ledger-ready ``health`` block for this run."""
        return {
            "policy": self.policy,
            "ok": self.ok,
            "stages": [d.to_dict() for d in self.digests],
            "probes": [p.to_dict() for p in self.probes],
        }

    def digest_map(self) -> Dict[str, str]:
        """The compact ``digests`` block: stage name → digest hex."""
        return {d.stage: d.digest for d in self.digests}


# ---------------------------------------------------------------------------
# The hooks library code calls: they write to the active run's recorder.
# ---------------------------------------------------------------------------


def _run_recorder() -> Optional[HealthRecorder]:
    """The enabled recorder of the calling thread's active run (or None)."""
    recorder = getattr(active_run(), "health", None)
    return recorder if recorder is not None and recorder.enabled else None


def checkpoint(stage: str, value) -> Optional[StageDigest]:
    """Fingerprint a stage output on the active run's recorder (no-op when off)."""
    recorder = _run_recorder()
    if recorder is None:
        return None
    return recorder.checkpoint(stage, value)


def check_sparsifier_mass(
    counts: sp.spmatrix,
    num_draws: int,
    *,
    tolerance: float = MASS_RTOL,
) -> Optional[ProbeResult]:
    """Probe the ``E[Σ W] = M`` estimator contract (see module docstring)."""
    recorder = _run_recorder()
    if recorder is None or num_draws <= 0:
        return None
    total = float(counts.sum())
    rel = (total - float(num_draws)) / float(num_draws)
    ok = math.isfinite(rel) and abs(rel) <= tolerance
    return recorder.record_probe(
        ProbeResult(
            name="sparsifier_mass",
            stage="sparsifier",
            value=rel,
            ok=ok,
            threshold=tolerance,
            detail=f"total mass {total:g} vs {num_draws} draws",
        )
    )


def check_factorization_residual(
    matrix,
    u: np.ndarray,
    sigma: np.ndarray,
    vt: np.ndarray,
    *,
    threshold: float = RESIDUAL_THRESHOLD,
) -> Optional[ProbeResult]:
    """Posterior probe-vector residual of ``A ≈ U Σ Vᵀ`` after factorize."""
    recorder = _run_recorder()
    if recorder is None:
        return None
    # Local import: randomized_svd imports the telemetry package, so a
    # top-level import here would be circular during package init.
    from repro.linalg.randomized_svd import residual_estimate

    value = residual_estimate(
        matrix, u, sigma, vt, probes=RESIDUAL_PROBES, seed=RESIDUAL_SEED
    )
    ok = math.isfinite(value) and value <= threshold
    return recorder.record_probe(
        ProbeResult(
            name="factorization_residual",
            stage="svd",
            value=value,
            ok=ok,
            threshold=threshold,
            detail=f"{RESIDUAL_PROBES} probe vectors, rank {len(sigma)}",
        )
    )
