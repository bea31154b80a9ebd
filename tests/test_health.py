"""Tests for the numerical-health layer: digests, policy, recorder, pipeline.

Covers the digest canonicalization contract (memory order / triplet order
never change a fingerprint, content always does), the policy state machine
(set_policy > REPRO_HEALTH > off), recorder/probe policy handling, the
``run_pipeline`` integration (``info["health"]`` / ``info["digests"]``, the
ledger blocks, the fail-fast non-finite guard), and the determinism sweep:
stage digests are bit-identical across ``workers`` counts on both execution
substrates.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.embedding.lightne as lightne_mod
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.errors import NumericalHealthError
from repro.telemetry import health, ledger
from repro.telemetry.health import (
    HealthRecorder,
    ProbeResult,
    StageDigest,
    digest_csr,
    digest_dense,
    fingerprint,
)

SMALL = dict(dimension=8, window=3, negative_samples=1)


# ---------------------------------------------------------------------------
# Content digests.
# ---------------------------------------------------------------------------


class TestDenseDigest:
    def test_memory_order_invariant(self, rng):
        a = rng.normal(size=(7, 5))
        f_order = np.asfortranarray(a)
        assert not f_order.flags.c_contiguous
        assert digest_dense("s", a).digest == digest_dense("s", f_order).digest

    def test_content_sensitivity(self, rng):
        a = rng.normal(size=(7, 5))
        b = a.copy()
        b[3, 2] += 1e-12
        assert digest_dense("s", a).digest != digest_dense("s", b).digest

    def test_shape_and_dtype_in_header(self):
        a = np.arange(6, dtype=np.float64)
        assert (
            digest_dense("s", a.reshape(2, 3)).digest
            != digest_dense("s", a.reshape(3, 2)).digest
        )
        assert (
            digest_dense("s", a).digest
            != digest_dense("s", a.astype(np.float32)).digest
        )

    def test_stats(self):
        a = np.array([0.0, 3.0, -4.0, np.nan])
        d = digest_dense("s", a)
        assert d.kind == "dense"
        assert d.nnz == 3  # nan counts as nonzero, 0.0 does not
        assert d.nonfinite == 1
        assert d.norm == pytest.approx(5.0)
        assert (d.vmin, d.vmax) == (-4.0, 3.0)

    def test_roundtrip_dict(self, rng):
        d = digest_dense("s", rng.normal(size=4))
        assert StageDigest.from_dict(d.to_dict()) == d


class TestCSRDigest:
    def test_triplet_order_invariant(self):
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0, 3.0]), (np.array([1, 0, 1]), np.array([0, 2, 2]))),
            shape=(2, 3),
        )
        shuffled = sp.coo_matrix(
            (np.array([3.0, 1.0, 2.0]), (np.array([1, 1, 0]), np.array([2, 0, 2]))),
            shape=(2, 3),
        )
        assert digest_csr("s", coo).digest == digest_csr("s", shuffled).digest

    def test_duplicates_summed_before_hashing(self):
        dup = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))),
            shape=(2, 2),
        )
        canonical = sp.csr_matrix(np.array([[0.0, 3.0], [0.0, 0.0]]))
        assert digest_csr("s", dup).digest == digest_csr("s", canonical).digest

    def test_content_sensitivity(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        b = sp.csr_matrix(np.array([[0.0, 1.0], [2.5, 0.0]]))
        assert digest_csr("s", a).digest != digest_csr("s", b).digest

    def test_fingerprint_dispatch(self, rng):
        assert fingerprint("s", sp.eye(3, format="csr")).kind == "csr"
        assert fingerprint("s", rng.normal(size=3)).kind == "dense"


# ---------------------------------------------------------------------------
# Policy state machine.
# ---------------------------------------------------------------------------


class TestPolicy:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        monkeypatch.delenv(health.ENV_POLICY, raising=False)
        health.clear_policy()
        yield
        health.clear_policy()

    def test_default_off(self):
        assert health.get_policy() == "off"

    def test_set_and_clear(self):
        health.set_policy("warn")
        assert health.get_policy() == "warn"
        health.clear_policy()
        assert health.get_policy() == "off"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(health.ENV_POLICY, "record")
        assert health.get_policy() == "record"
        monkeypatch.setenv(health.ENV_POLICY, "")
        assert health.get_policy() == "off"

    def test_unknown_env_value_rejected_like_the_flag(self, monkeypatch):
        # A typo must not silently turn the health layer off.
        monkeypatch.setenv(health.ENV_POLICY, "warm")
        with pytest.raises(ValueError, match="REPRO_HEALTH .*'warm'"):
            health.get_policy()
        with pytest.raises(ValueError, match="REPRO_HEALTH"):
            health.HealthRecorder()

    def test_set_policy_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(health.ENV_POLICY, "record")
        health.set_policy("raise")
        assert health.get_policy() == "raise"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="health policy"):
            health.set_policy("loud")

    def test_policy_scope_restores(self):
        health.set_policy("record")
        with health.policy_scope("raise"):
            assert health.get_policy() == "raise"
        assert health.get_policy() == "record"


# ---------------------------------------------------------------------------
# Recorder behaviour.
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_off_recorder_is_noop(self, rng):
        rec = HealthRecorder(policy="off")
        assert not rec.enabled
        assert rec.checkpoint("s", rng.normal(size=3)) is None
        assert rec.digests == [] and rec.ok

    def test_checkpoint_collects_and_suffixes_duplicates(self, rng):
        rec = HealthRecorder(policy="record")
        rec.checkpoint("svd", rng.normal(size=3))
        rec.checkpoint("svd", rng.normal(size=3))
        assert [d.stage for d in rec.digests] == ["svd", "svd#2"]
        assert set(rec.digest_map()) == {"svd", "svd#2"}

    def test_nonfinite_checkpoint_fails_finite_probe(self):
        rec = HealthRecorder(policy="record")
        rec.checkpoint("s", np.array([1.0, np.inf]))
        assert not rec.ok
        assert [p.name for p in rec.probes] == ["finite"]

    def test_raise_policy_throws(self):
        rec = HealthRecorder(policy="raise")
        with pytest.raises(NumericalHealthError, match="finite"):
            rec.checkpoint("s", np.array([np.nan]))

    def test_warn_policy_logs_and_continues(self, caplog):
        rec = HealthRecorder(policy="warn")
        with caplog.at_level("WARNING"):
            rec.record_probe(
                ProbeResult(name="p", stage="s", value=2.0, ok=False)
            )
        assert not rec.ok
        assert any("probe 'p' failed" in m for m in caplog.messages)

    def test_module_hooks_need_active_recorder(self, rng):
        with health.policy_scope("record"):
            assert health.checkpoint("s", rng.normal(size=3)) is None
            rec = HealthRecorder()
            with health.recorder_scope(rec):
                assert health.checkpoint("s", rng.normal(size=3)) is not None
            assert health.active_recorder() is None
        assert len(rec.digests) == 1

    def test_summary_shape(self, rng):
        rec = HealthRecorder(policy="record")
        rec.checkpoint("s", rng.normal(size=3))
        summary = rec.summary()
        assert summary["policy"] == "record" and summary["ok"] is True
        assert [e["stage"] for e in summary["stages"]] == ["s"]


# ---------------------------------------------------------------------------
# Pipeline integration.
# ---------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_off_by_default_no_blocks(self, er_graph):
        health.clear_policy()
        res = lightne_embedding(er_graph, LightNEParams(**SMALL), seed=1)
        assert "health" not in res.info and "digests" not in res.info

    def test_record_policy_collects_stages_and_probes(self, er_graph):
        with health.policy_scope("record"):
            res = lightne_embedding(
                er_graph, LightNEParams(workers=1, **SMALL), seed=1
            )
        assert list(res.info["digests"]) == [
            "sparsifier", "svd.netmf_matrix", "svd", "propagation", "final",
        ]
        block = res.info["health"]
        assert block["ok"] is True
        assert {p["name"] for p in block["probes"]} == {
            "sparsifier_mass", "factorization_residual",
        }
        assert all(p["ok"] for p in block["probes"])

    def test_final_digest_matches_returned_vectors(self, er_graph):
        with health.policy_scope("record"):
            res = lightne_embedding(
                er_graph, LightNEParams(workers=1, **SMALL), seed=1
            )
        expected = digest_dense("final", res.vectors).digest
        assert res.info["digests"]["final"] == expected

    def test_ledger_record_carries_health_blocks(self, er_graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ledger.enabled_scope(path=str(path), dataset="er"):
            with health.policy_scope("record"):
                lightne_embedding(
                    er_graph, LightNEParams(workers=1, **SMALL), seed=1
                )
        (record,) = ledger.RunLedger(str(path)).records()
        assert record.digests and record.health["ok"] is True
        assert set(record.digests) == {
            "sparsifier", "svd.netmf_matrix", "svd", "propagation", "final",
        }

    def test_nonfinite_guard_raises_under_raise_policy(
        self, er_graph, monkeypatch
    ):
        clean = lightne_mod.spectral_propagation

        def poisoned(graph, vectors, **kwargs):
            out = clean(graph, vectors, **kwargs).copy()
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(lightne_mod, "spectral_propagation", poisoned)
        params = LightNEParams(workers=1, **SMALL)
        with health.policy_scope("raise"):
            with pytest.raises(NumericalHealthError, match="non-finite"):
                lightne_embedding(er_graph, params, seed=1)
        # Under "record" the run completes but the failure is on record.
        with health.policy_scope("record"):
            res = lightne_embedding(er_graph, params, seed=1)
        assert res.info["health"]["ok"] is False
        failed = [p for p in res.info["health"]["probes"] if not p["ok"]]
        assert failed and failed[0]["name"] == "finite"

    def test_guard_active_even_with_policy_off(self, er_graph, monkeypatch):
        """The final-embedding guard is unconditional (warn, count, return)."""
        monkeypatch.setattr(
            lightne_mod,
            "spectral_propagation",
            lambda graph, vectors, **kw: np.full_like(vectors, np.nan),
        )
        health.clear_policy()
        res = lightne_embedding(
            er_graph, LightNEParams(workers=1, **SMALL), seed=1
        )
        assert np.isnan(res.vectors).all()  # returned, not raised

    @staticmethod
    def _nan_seeded_run(er_graph):
        """One traced run of a body returning 3 NaN entries, two of which an
        earlier stage checkpoint also saw; returns its ``health.nonfinite``."""
        from repro import telemetry
        from repro.embedding.base import PipelineSpec, run_pipeline

        def body(ctx):
            vectors = np.ones((ctx.graph.num_vertices, ctx.params.dimension))
            vectors[0, :2] = np.nan
            health.checkpoint("svd", vectors)
            vectors[1, 0] = np.nan
            return vectors

        telemetry.enable()
        try:
            result = run_pipeline(
                er_graph, PipelineSpec("nan-seeded", body), LightNEParams(**SMALL)
            )
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
        return result.info["telemetry"]["metrics"]["counters"]["health.nonfinite"]

    @pytest.mark.parametrize("policy", ["off", "record", "warn"])
    def test_nonfinite_counted_once_whatever_the_policy(self, er_graph, policy):
        """``health.nonfinite`` is the final embedding's count, taken by the
        guard alone: not doubled by the ``final`` checkpoint, not inflated by
        what earlier stage checkpoints saw (those stay in the probes)."""
        with health.policy_scope(policy):
            assert self._nan_seeded_run(er_graph) == 3.0

    def test_nonfinite_still_raises_under_raise(self, er_graph):
        with health.policy_scope("raise"):
            with pytest.raises(NumericalHealthError):
                self._nan_seeded_run(er_graph)


# ---------------------------------------------------------------------------
# Determinism sweep: digests stable across workers × substrate.
# ---------------------------------------------------------------------------


class TestDigestDeterminism:
    def test_digests_identical_across_workers_and_backends(self, er_graph):
        maps = []
        for backend in ("thread", "process"):
            for workers in (1, 2):
                with health.policy_scope("record"):
                    res = lightne_embedding(
                        er_graph,
                        LightNEParams(
                            workers=workers,
                            backend=backend,
                            **SMALL,
                        ),
                        seed=3,
                    )
                maps.append((backend, workers, res.info["digests"]))
        reference = maps[0][2]
        assert all(d == reference for _, _, d in maps), (
            "stage digests drifted across workers/substrates: "
            + repr([(b, w, d) for b, w, d in maps if d != reference])
        )
