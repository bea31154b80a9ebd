"""Tests for the spectral-sparsification analysis helpers
(``tests/contracts/spectral_analysis.py``) — these directly verify the
theorems the paper's downsampling rests on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from tests.contracts.downsampled_graphs import downsample_graph_laplacian_sample
from tests.contracts.spectral_analysis import (
    effective_resistances,
    exact_resistance_probabilities,
    laplacian_matrix,
    lovasz_resistance_bounds,
    quadratic_form_ratio,
    spectral_approximation_factor,
)


class TestLaplacian:
    def test_row_sums_zero(self, er_graph):
        lap = laplacian_matrix(er_graph)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_psd(self, er_graph):
        vals = np.linalg.eigvalsh(laplacian_matrix(er_graph).toarray())
        assert vals.min() > -1e-9

    def test_weighted(self, weighted_triangle):
        lap = laplacian_matrix(weighted_triangle).toarray()
        assert lap[0, 0] == pytest.approx(4.0)  # weighted degree
        assert lap[0, 1] == pytest.approx(-1.0)


class TestEffectiveResistance:
    def test_single_edge_is_one(self):
        g = from_edges([0], [1])
        r = effective_resistances(g, np.array([0]), np.array([1]))
        assert r[0] == pytest.approx(1.0)

    def test_series_resistors_add(self):
        # Path 0-1-2: R(0,2) = 1 + 1 = 2.
        g = from_edges([0, 1], [1, 2])
        r = effective_resistances(g, np.array([0]), np.array([2]))
        assert r[0] == pytest.approx(2.0)

    def test_parallel_resistors_halve(self):
        # Two parallel unit edges between 0 and 1 (weights add): R = 1/2.
        g = from_edges([0, 0], [1, 1], [1.0, 1.0])
        r = effective_resistances(g, np.array([0]), np.array([1]))
        assert r[0] == pytest.approx(0.5)

    def test_triangle(self, triangle):
        # R across one edge of a unit triangle = 2/3.
        r = effective_resistances(triangle, np.array([0]), np.array([1]))
        assert r[0] == pytest.approx(2.0 / 3.0)

    def test_symmetric(self, er_graph):
        a = effective_resistances(er_graph, np.array([0, 5]), np.array([5, 0]))
        assert a[0] == pytest.approx(a[1])

    def test_parallel_array_validation(self, triangle):
        with pytest.raises(EvaluationError):
            effective_resistances(triangle, np.array([0]), np.array([1, 2]))


class TestLovaszBounds:
    """Theorem 3.2 of the paper, verified exactly on random graphs."""

    def test_bounds_hold_on_edges(self):
        g = erdos_renyi_graph(60, 0.25, seed=0)
        src, dst = g.edge_endpoints()
        mask = src < dst
        src, dst = src[mask], dst[mask]
        exact = effective_resistances(g, src, dst)
        lower, upper = lovasz_resistance_bounds(g, src, dst)
        assert np.all(exact >= lower - 1e-9)
        assert np.all(exact <= upper + 1e-9)

    def test_bounds_hold_on_sbm(self):
        g, _ = dcsbm_graph(80, 2, avg_degree=12, mixing=0.3, seed=1)
        src, dst = g.edge_endpoints()
        mask = src < dst
        # restrict to a sample of pairs for speed
        take = np.arange(0, mask.sum(), 3)
        src, dst = src[mask][take], dst[mask][take]
        exact = effective_resistances(g, src, dst)
        lower, upper = lovasz_resistance_bounds(g, src, dst)
        assert np.all(exact >= lower - 1e-9)
        assert np.all(exact <= upper + 1e-6)

    def test_expander_bounds_tight(self):
        """On a dense (expander-like) graph the two bounds bracket tightly —
        the reason degree sampling works (paper §3.2 discussion)."""
        g = erdos_renyi_graph(80, 0.5, seed=2)
        src, dst = g.edge_endpoints()
        mask = src < dst
        src, dst = src[mask][:50], dst[mask][:50]
        lower, upper = lovasz_resistance_bounds(g, src, dst)
        assert np.median(upper / lower) < 4.0

    def test_zero_degree_rejected(self):
        g = from_edges([0], [1], num_vertices=3)
        with pytest.raises(EvaluationError):
            lovasz_resistance_bounds(g, np.array([0]), np.array([2]))


class TestQuadraticForms:
    def test_identical_graph_ratio_one(self, er_graph, rng):
        lap = laplacian_matrix(er_graph)
        ratios = quadratic_form_ratio(er_graph, lap, rng.standard_normal((60, 8)))
        ratios = ratios[np.isfinite(ratios)]
        np.testing.assert_allclose(ratios, 1.0, atol=1e-9)

    def test_half_weight_graph_ratio_half(self, er_graph, rng):
        lap = laplacian_matrix(er_graph) * 0.5
        ratios = quadratic_form_ratio(er_graph, lap, rng.standard_normal((60, 4)))
        ratios = ratios[np.isfinite(ratios)]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-9)

    def test_approximation_factor_zero_for_identity(self, er_graph):
        eps = spectral_approximation_factor(er_graph, laplacian_matrix(er_graph))
        assert eps == pytest.approx(0.0, abs=1e-8)

    def test_downsampled_graph_is_decent_sparsifier(self):
        """The paper's pipeline: a degree-downsampled graph should be a
        bounded spectral approximation of the original (§3.2 theory)."""
        import scipy.sparse as sp

        g = erdos_renyi_graph(100, 0.4, seed=3)
        rng = np.random.default_rng(0)
        # Average several downsampled draws (lower variance than a single H).
        n = g.num_vertices
        acc = sp.csr_matrix((n, n))
        repeats = 8
        for _ in range(repeats):
            s, d, w = downsample_graph_laplacian_sample(g, rng)
            rows = np.concatenate([s, d, s, d])
            cols = np.concatenate([d, s, s, d])
            vals = np.concatenate([-w, -w, w, w])
            acc = acc + sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        eps = spectral_approximation_factor(g, acc / repeats)
        assert eps < 1.0  # bounded distortion; exact ε shrinks with repeats


class TestExactVsDegreeSampling:
    """§3.2: degree-based p_e upper-bounds the ideal resistance-based p_e."""

    def test_degree_probs_dominate_exact(self):
        from repro.sparsifier.downsampling import graph_downsampling_probabilities

        g = erdos_renyi_graph(70, 0.3, seed=4)
        degree_p = graph_downsampling_probabilities(g, constant=1.0)
        exact_p = exact_resistance_probabilities(g, constant=1.0)
        # R_uv <= (1/(1-λ2))(1/du+1/dv) but >= (1/2)(1/du+1/dv): the degree
        # bound with C=1 must dominate half the exact probability everywhere.
        assert np.all(degree_p >= 0.5 * exact_p - 1e-12)

    def test_expected_sizes_same_order(self):
        from repro.sparsifier.downsampling import graph_downsampling_probabilities

        g = erdos_renyi_graph(70, 0.3, seed=5)
        degree_total = graph_downsampling_probabilities(g, constant=1.0).sum()
        exact_total = exact_resistance_probabilities(g, constant=1.0).sum()
        # Degree sampling keeps more edges (it over-estimates resistance on
        # expanders) but within a small constant factor on a random graph.
        assert exact_total <= degree_total <= 6 * exact_total

    def test_same_edge_order_as_downsampling(self):

        g = erdos_renyi_graph(30, 0.3, seed=6)
        p = exact_resistance_probabilities(g)
        src, dst = g.edge_endpoints()
        assert p.size == (src < dst).sum()
        assert np.all((p > 0) & (p <= 1))
