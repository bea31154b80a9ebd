"""Tests for the single-pass sketched factorization backend."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.embedding import make_params, run_method
from repro.errors import FactorizationError, MethodParameterError
from repro.linalg.randomized_svd import exact_reference_svd
from repro.linalg.single_pass import (
    FACTORIZERS,
    factorize,
    single_pass_svd,
)
from repro.linalg.sketch import (
    densify_sketch,
    sketch_density,
    sparse_sign_sketch,
)


def symmetric_low_rank(n, rank, rng, *, tail=0.01):
    """Symmetric matrix with a sharp top-``rank`` spectrum and a tiny tail."""
    basis = np.linalg.qr(rng.standard_normal((n, 2 * rank)))[0]
    values = np.concatenate(
        [np.linspace(10.0, 1.0, rank), np.full(rank, tail)]
    )
    return basis @ (values[:, None] * basis.T)


def rectangular_low_rank(n, k, rank, rng):
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((rank, k))
    return (u * np.linspace(10.0, 1.0, rank)) @ v


def _identical(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSparseSignSketch:
    def test_shape_and_format(self):
        s = sparse_sign_sketch(100, 12, seed=0)
        assert isinstance(s, sp.csc_matrix)
        assert s.shape == (100, 12)

    def test_values_are_scaled_signs(self):
        s = sparse_sign_sketch(200, 16, seed=1)
        density = min(8 / 16, 1.0)
        scale = 1.0 / np.sqrt(density * 200)
        assert set(np.unique(s.data)) <= {-scale, scale}

    def test_expected_density(self):
        s = sparse_sign_sketch(2000, 25, nnz_per_row=8, seed=2)
        # ζ/width = 8/25 expected; Bernoulli noise stays well within 20%.
        assert sketch_density(s) == pytest.approx(8 / 25, rel=0.2)

    def test_no_zero_columns(self):
        # Tiny density: the zero-column guard must kick in.
        s = sparse_sign_sketch(3, 64, nnz_per_row=1, seed=3)
        nnz_per_col = np.diff(s.indptr)
        assert (nnz_per_col >= 1).all()

    def test_deterministic_per_seed(self):
        a = sparse_sign_sketch(150, 20, seed=7)
        b = sparse_sign_sketch(150, 20, seed=7)
        assert (a != b).nnz == 0

    def test_generator_consumes_one_draw(self):
        # A Generator input must consume exactly one draw, so downstream
        # stream consumption does not shift the sketch.
        rng1 = np.random.default_rng(9)
        sparse_sign_sketch(50, 8, seed=rng1)
        after_one = rng1.integers(0, 2**31)
        rng2 = np.random.default_rng(9)
        rng2.integers(0, 2**63 - 1)  # the sketch's one root draw, by hand
        assert after_one == rng2.integers(0, 2**31)

    def test_densify_dtype(self):
        s = sparse_sign_sketch(30, 6, seed=4)
        dense = densify_sketch(s, dtype=np.float32)
        assert dense.dtype == np.float32
        assert dense.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(dense, s.toarray(), rtol=1e-6)

    def test_validation(self):
        with pytest.raises(FactorizationError):
            sparse_sign_sketch(0, 4)
        with pytest.raises(FactorizationError):
            sparse_sign_sketch(4, 0)
        with pytest.raises(FactorizationError):
            sparse_sign_sketch(4, 4, nnz_per_row=0)


class TestAccuracy:
    def test_symmetric_sparse(self, rng):
        m = sp.csr_matrix(symmetric_low_rank(120, 6, rng))
        u, sigma, vt = single_pass_svd(m, 6, seed=0, symmetric=True)
        _, exact, _ = exact_reference_svd(m, 6)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)
        dense = m.toarray()
        err = np.linalg.norm(dense - (u * sigma) @ vt) / np.linalg.norm(dense)
        assert err < 0.05

    def test_symmetric_dense(self, rng):
        m = symmetric_low_rank(80, 5, rng)
        _, sigma, _ = single_pass_svd(m, 5, seed=1, symmetric=True)
        _, exact, _ = exact_reference_svd(m, 5)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)

    def test_indefinite_spectrum(self, rng):
        # Negative eigenvalues must surface as positive singular values.
        basis = np.linalg.qr(rng.standard_normal((90, 6)))[0]
        values = np.array([9.0, -7.0, 5.0, -3.0, 2.0, 1.0])
        m = basis @ (values[:, None] * basis.T)
        u, sigma, vt = single_pass_svd(m, 4, seed=2, symmetric=True)
        _, exact, _ = exact_reference_svd(m, 4)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)
        err = np.linalg.norm(m - (u * sigma) @ vt) / np.linalg.norm(m)
        assert err < 0.25

    def test_rectangular_dense(self, rng):
        m = rectangular_low_rank(100, 40, 5, rng)
        u, sigma, vt = single_pass_svd(m, 5, seed=3)
        assert u.shape == (100, 5)
        assert vt.shape == (5, 40)
        _, exact, _ = exact_reference_svd(m, 5)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)

    def test_linear_operator(self, rng):
        dense = rectangular_low_rank(70, 50, 4, rng)
        op = spla.aslinearoperator(dense)
        _, sigma, _ = single_pass_svd(op, 4, seed=4)
        _, exact, _ = exact_reference_svd(dense, 4)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)

    def test_orthonormal_u(self, rng):
        m = sp.csr_matrix(symmetric_low_rank(100, 6, rng))
        u, _, _ = single_pass_svd(m, 6, seed=5, symmetric=True)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-8)

    def test_single_precision_parity(self, rng):
        m = sp.csr_matrix(symmetric_low_rank(120, 6, rng))
        _, sigma64, _ = single_pass_svd(m, 6, seed=6, symmetric=True)
        u32, sigma32, vt32 = single_pass_svd(
            m, 6, seed=6, symmetric=True, precision="single"
        )
        assert u32.dtype == np.float32
        assert vt32.dtype == np.float32
        np.testing.assert_allclose(sigma32, sigma64, rtol=1e-3)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_invariance(self, rng, workers):
        m = sp.csr_matrix(symmetric_low_rank(150, 6, rng))
        baseline = single_pass_svd(m, 6, seed=0, symmetric=True, workers=1)
        swept = single_pass_svd(m, 6, seed=0, symmetric=True, workers=workers)
        assert _identical(baseline, swept)

    def test_seed_changes_output(self, rng):
        m = sp.csr_matrix(symmetric_low_rank(120, 6, rng))
        a = single_pass_svd(m, 6, seed=0, symmetric=True)
        b = single_pass_svd(m, 6, seed=1, symmetric=True)
        assert not np.array_equal(a[0], b[0])


class TestFactorizeDispatcher:
    def test_rsvd_is_verbatim(self, rng):
        from repro.linalg.randomized_svd import randomized_svd

        m = sp.csr_matrix(symmetric_low_rank(100, 5, rng))
        via_knob = factorize(m, 5, factorizer="rsvd", seed=11)
        direct = randomized_svd(m, 5, seed=11)
        assert _identical(via_knob, direct)

    def test_none_means_rsvd(self, rng):
        m = symmetric_low_rank(60, 4, rng)
        assert _identical(
            factorize(m, 4, factorizer=None, seed=1),
            factorize(m, 4, factorizer="rsvd", seed=1),
        )

    def test_hyphen_alias(self, rng):
        m = sp.csr_matrix(symmetric_low_rank(80, 4, rng))
        assert _identical(
            factorize(m, 4, factorizer="single-pass", seed=2, symmetric=True),
            factorize(m, 4, factorizer="single_pass", seed=2, symmetric=True),
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(FactorizationError, match="factorizer"):
            factorize(np.eye(8), 2, factorizer="qr")

    def test_factorizers_tuple(self):
        assert FACTORIZERS == ("rsvd", "single_pass")


class TestValidation:
    def test_rank_too_large(self):
        with pytest.raises(FactorizationError):
            single_pass_svd(np.eye(4), 5)

    def test_rank_zero(self):
        with pytest.raises(FactorizationError):
            single_pass_svd(np.eye(4), 0)

    def test_negative_oversampling(self):
        with pytest.raises(FactorizationError):
            single_pass_svd(np.eye(4), 2, oversampling=-1)

    def test_symmetric_requires_square(self, rng):
        with pytest.raises(FactorizationError, match="square"):
            single_pass_svd(
                rng.standard_normal((6, 4)), 2, symmetric=True
            )


class TestRegistryKnob:
    def test_make_params_accepts_factorizer(self):
        for method in ("lightne", "sketchne", "netsmf", "netmf", "nrp"):
            params = make_params(method, factorizer="single_pass")
            assert params.factorizer == "single_pass"

    def test_rejected_on_methods_without_capability(self):
        for method in ("prone", "deepwalk", "pbg"):
            with pytest.raises(MethodParameterError, match="factorizer"):
                make_params(method, factorizer="single_pass")

    def test_nonstrict_drops_silently(self):
        params = make_params("prone", strict=False, factorizer="single_pass")
        assert not hasattr(params, "factorizer")

    def test_sketchne_default_is_single_pass(self):
        assert make_params("sketchne").factorizer == "single_pass"

    def test_aliases_resolve(self):
        from repro.embedding import canonical_name

        assert canonical_name("netmf+") == "sketchne"
        assert canonical_name("netmfplus") == "sketchne"


class TestMethodLevel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sketchne_substrate_bit_identity(self, er_graph, workers, backend):
        baseline = run_method(
            "sketchne", er_graph, seed=2021, dimension=8, window=3,
            propagate=False, workers=1, backend="thread",
        )
        swept = run_method(
            "sketchne", er_graph, seed=2021, dimension=8, window=3,
            propagate=False, workers=workers, backend=backend,
        )
        np.testing.assert_array_equal(baseline.vectors, swept.vectors)

    def test_lightne_default_unchanged_by_knob(self, er_graph):
        default = run_method(
            "lightne", er_graph, seed=2021, dimension=8, window=3,
            propagate=False,
        )
        explicit = run_method(
            "lightne", er_graph, seed=2021, dimension=8, window=3,
            propagate=False, factorizer="rsvd",
        )
        np.testing.assert_array_equal(default.vectors, explicit.vectors)
        assert default.info["factorizer"] == "rsvd"

    def test_lightne_single_pass_differs_but_works(self, er_graph):
        result = run_method(
            "lightne", er_graph, seed=2021, dimension=8, window=3,
            propagate=False, factorizer="single_pass",
        )
        assert result.vectors.shape == (er_graph.num_vertices, 8)
        assert np.isfinite(result.vectors).all()
        assert result.info["factorizer"] == "single_pass"

    def test_nrp_single_pass(self, er_graph):
        result = run_method(
            "nrp", er_graph, seed=2021, dimension=8,
            factorizer="single_pass",
        )
        assert result.vectors.shape == (er_graph.num_vertices, 8)
        assert np.isfinite(result.vectors).all()

    def test_sketchne_telemetry_counts_one_pass(self, er_graph):
        from repro import telemetry

        telemetry.enable()
        telemetry.reset_metrics()
        try:
            run_method(
                "sketchne", er_graph, seed=2021, dimension=8, window=3,
                propagate=False,
            )
            snapshot = telemetry.get_metrics().snapshot()
            assert snapshot["counters"]["sketch.operator_passes"] == 1
            assert snapshot["counters"]["sketch.flops"] > 0
        finally:
            telemetry.disable()
            telemetry.reset_metrics()


class TestExactReferenceOperator:
    def test_linear_operator_materialization(self, rng):
        dense = rectangular_low_rank(40, 30, 4, rng)
        op = spla.aslinearoperator(dense)
        u_op, s_op, vt_op = exact_reference_svd(op, 4)
        u_d, s_d, vt_d = exact_reference_svd(dense, 4)
        np.testing.assert_allclose(s_op, s_d, rtol=1e-10)
        np.testing.assert_allclose(np.abs(u_op), np.abs(u_d), atol=1e-8)

    def test_wide_operator_blocks(self, rng):
        # More columns than the identity block width exercises the loop.
        dense = rng.standard_normal((10, 300))
        op = spla.aslinearoperator(dense)
        _, s_op, _ = exact_reference_svd(op, 3)
        _, s_d, _ = exact_reference_svd(dense, 3)
        np.testing.assert_allclose(s_op, s_d, rtol=1e-10)
