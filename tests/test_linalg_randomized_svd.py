"""Tests for the Algorithm-3 randomized SVD."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.errors import FactorizationError
from repro.graph.generators import erdos_renyi_graph
from repro.linalg.randomized_svd import (
    embedding_from_svd,
    exact_reference_svd,
    factorize,
    randomized_svd,
)


def low_rank_matrix(n, k, rank, rng, noise=0.0):
    """Random matrix with a sharp rank-``rank`` structure."""
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((rank, k))
    scales = np.linspace(10.0, 1.0, rank)
    m = (u * scales) @ v
    if noise:
        m = m + noise * rng.standard_normal((n, k))
    return m


class TestAccuracy:
    def test_exact_on_low_rank(self, rng):
        m = low_rank_matrix(60, 40, 5, rng)
        u, sigma, vt = randomized_svd(m, 5, seed=0)
        reconstruction = (u * sigma) @ vt
        assert np.linalg.norm(m - reconstruction) / np.linalg.norm(m) < 1e-8

    def test_singular_values_match_exact(self, rng):
        m = low_rank_matrix(50, 50, 8, rng, noise=0.01)
        _, sigma, _ = randomized_svd(m, 8, seed=1, power_iterations=3)
        _, exact, _ = exact_reference_svd(m, 8)
        np.testing.assert_allclose(sigma, exact, rtol=0.02)

    def test_sparse_input(self, rng):
        dense = low_rank_matrix(40, 40, 4, rng)
        dense[np.abs(dense) < 1.0] = 0.0
        sparse = sp.csr_matrix(dense)
        u, sigma, vt = randomized_svd(sparse, 4, seed=2, power_iterations=3)
        _, exact, _ = exact_reference_svd(dense, 4)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)

    def test_linear_operator_input(self, rng):
        dense = low_rank_matrix(30, 30, 3, rng)
        op = spla.aslinearoperator(dense)
        _, sigma, _ = randomized_svd(op, 3, seed=3, power_iterations=2)
        _, exact, _ = exact_reference_svd(dense, 3)
        np.testing.assert_allclose(sigma, exact, rtol=0.05)

    def test_rectangular(self, rng):
        m = low_rank_matrix(80, 30, 5, rng)
        u, sigma, vt = randomized_svd(m, 5, seed=4)
        assert u.shape == (80, 5)
        assert vt.shape == (5, 30)
        reconstruction = (u * sigma) @ vt
        assert np.linalg.norm(m - reconstruction) / np.linalg.norm(m) < 1e-6

    def test_power_iterations_help(self, rng):
        # Slowly decaying spectrum: subspace iteration should tighten sigma_1.
        m = rng.standard_normal((100, 100))
        _, exact, _ = exact_reference_svd(m, 5)

        def err(q):
            _, sigma, _ = randomized_svd(m, 5, seed=5, power_iterations=q)
            return np.abs(sigma - exact).max()

        assert err(4) <= err(0) + 1e-9

    def test_orthonormal_u(self, rng):
        m = low_rank_matrix(50, 50, 6, rng, noise=0.1)
        u, _, _ = randomized_svd(m, 6, seed=6)
        gram = u.T @ u
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_deterministic_given_seed(self, rng):
        m = low_rank_matrix(30, 30, 4, rng)
        a = randomized_svd(m, 4, seed=7)
        b = randomized_svd(m, 4, seed=7)
        np.testing.assert_allclose(a[1], b[1])
        np.testing.assert_allclose(a[0], b[0])


class TestValidation:
    def test_rank_too_large(self):
        with pytest.raises(FactorizationError):
            randomized_svd(np.eye(4), 5)

    def test_rank_zero(self):
        with pytest.raises(FactorizationError):
            randomized_svd(np.eye(4), 0)

    def test_negative_oversampling(self):
        with pytest.raises(FactorizationError):
            randomized_svd(np.eye(4), 2, oversampling=-1)

    def test_symmetric_requires_square(self, rng):
        with pytest.raises(FactorizationError, match="square"):
            randomized_svd(rng.standard_normal((6, 4)), 2, symmetric=True)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rank": 5}, {"rank": 0}, {"rank": 2, "oversampling": -1}],
        ids=["rank_too_large", "rank_zero", "negative_oversampling"],
    )
    def test_factorize_checks(self, kwargs):
        with pytest.raises(FactorizationError):
            factorize(np.eye(4), **kwargs)


class TestFactorize:
    """``factorize`` is the pipelines' one entry point: the rSVD verbatim
    plus the health probe, and ``"rsvd"`` is the only factorizer."""

    def test_rsvd_is_verbatim(self, rng):
        m = sp.csr_matrix(low_rank_matrix(100, 100, 5, rng))
        via_factorize = factorize(m, 5, seed=11)
        direct = randomized_svd(m, 5, seed=11)
        assert all(np.array_equal(a, b) for a, b in zip(via_factorize, direct))

    @pytest.mark.parametrize("name", ["single_pass", "qr", None])
    def test_other_factorizers_rejected(self, name):
        with pytest.raises(FactorizationError, match="factorizer"):
            factorize(np.eye(8), 2, factorizer=name)

    def test_lightne_default_unchanged_by_knob(self):
        graph = erdos_renyi_graph(60, 0.1, seed=0)
        default = lightne_embedding(graph, LightNEParams(dimension=4, window=2), 1)
        explicit = lightne_embedding(
            graph, LightNEParams(dimension=4, window=2, factorizer="rsvd"), 1
        )
        np.testing.assert_array_equal(default.vectors, explicit.vectors)
        assert default.info["params"]["factorizer"] == "rsvd"

    def test_lightne_rejects_another_factorizer(self):
        graph = erdos_renyi_graph(60, 0.1, seed=0)
        params = LightNEParams(dimension=4, window=2, factorizer="single_pass")
        with pytest.raises(FactorizationError, match="single_pass"):
            lightne_embedding(graph, params, seed=0)

    def test_single_pass_module_is_only_the_reexport(self):
        import repro.linalg.single_pass as single_pass

        assert single_pass.factorize is factorize
        public = {name for name in vars(single_pass) if not name.startswith("_")}
        assert public == {"factorize"}


class TestBlockedSketchGeneration:
    def test_double_path_is_plain_standard_normal(self):
        from repro.linalg.randomized_svd import _gaussian_sketch

        direct = np.random.default_rng(21).standard_normal((40, 14))
        blocked = _gaussian_sketch(
            np.random.default_rng(21), (40, 14), np.float64
        )
        np.testing.assert_array_equal(direct, blocked)

    def test_float32_blocks_consume_the_same_draws(self):
        # The float32 sketch must be the cast of exactly the float64 draws
        # (block boundaries cannot shift the stream), so single/double runs
        # of the same seed share their random sketch.
        from repro.linalg.randomized_svd import _gaussian_sketch

        full = np.random.default_rng(22).standard_normal((100, 7))
        blocked = _gaussian_sketch(
            np.random.default_rng(22), (100, 7), np.float32, block_rows=13
        )
        assert blocked.dtype == np.float32
        np.testing.assert_array_equal(blocked, full.astype(np.float32))

    def test_single_path_quality_against_oracle(self, rng):
        m = low_rank_matrix(60, 60, 5, rng)
        u, sigma, vt = randomized_svd(m, 5, seed=22, precision="single")
        assert u.dtype == np.float32
        _, exact, _ = exact_reference_svd(m, 5)
        np.testing.assert_allclose(sigma, exact, rtol=1e-2)


class TestOperatorPassCounter:
    @pytest.mark.parametrize("power_iterations", [0, 1, 2, 3])
    def test_counts_two_plus_two_q(self, rng, power_iterations):
        from repro import telemetry

        m = low_rank_matrix(30, 30, 3, rng)
        tracer = telemetry.enable()
        try:
            randomized_svd(m, 3, seed=0, power_iterations=power_iterations)
            assert tracer.counters["svd.operator_passes"] == (
                2 + 2 * power_iterations
            )
        finally:
            telemetry.disable()


class TestSinglePrecisionNetMF:
    def test_no_householder_fallback(self):
        """The float32 rSVD of a NetMF matrix stays on CholeskyQR2.

        The graph and sparsifier are the ``factorize_heavy`` benchmark
        workload's ``--quick`` input at seed 2021; its final ``orth(B·P)``
        block has ``cond² > 1/eps₃₂``, which a float32-only limit rejected.
        """
        from repro import telemetry
        from repro.graph.generators import dcsbm_graph
        from repro.sparsifier.builder import (
            build_sparsifier,
            sparsifier_to_netmf_matrix,
        )
        from repro.sparsifier.path_sampling import PathSamplingConfig

        graph, _ = dcsbm_graph(
            2000, 10, avg_degree=16.0, mixing=0.2, labels_per_node=2, seed=2021
        )
        config = PathSamplingConfig(
            window=5,
            num_samples=PathSamplingConfig.samples_for_multiplier(graph, 5, 1.0),
        )
        sparsifier = build_sparsifier(
            graph, config, np.random.default_rng(2022), workers=1
        )
        matrix = sparsifier_to_netmf_matrix(graph, sparsifier)
        telemetry.enable()
        try:
            u, _, _ = randomized_svd(
                matrix, 128, seed=np.random.default_rng(2022),
                precision="single", symmetric=True,
            )
            counters = telemetry.get_tracer().counters
        finally:
            telemetry.disable()
        assert u.dtype == np.float32
        assert counters["svd.operator_passes"] == 6
        assert counters.get("linalg.cholesky_qr_fallbacks", 0) == 0


class TestExactReferenceOperator:
    def test_linear_operator_materialization(self, rng):
        dense = low_rank_matrix(40, 30, 4, rng)
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


class TestEmbeddingFromSvd:
    def test_scaling(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        sigma = np.array([4.0, 9.0])
        x = embedding_from_svd(u, sigma)
        np.testing.assert_allclose(x, [[2.0, 0.0], [0.0, 3.0]])

    def test_negative_sigma_clipped(self):
        x = embedding_from_svd(np.ones((1, 1)), np.array([-1.0]))
        assert x[0, 0] == 0.0

    def test_clip_option(self):
        x = embedding_from_svd(np.ones((1, 1)), np.array([100.0]), clip=4.0)
        assert x[0, 0] == pytest.approx(2.0)
