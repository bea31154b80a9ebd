"""The sparsifier is a spectral approximation whose ε falls like ``M^−½``.

Stated once: with ``P = D⁻¹A``, ``S = (1/T)·Σ_{r=1..T} Pʳ`` and ``M``
PathSampling draws aggregated into ``W̄ = (W + Wᵀ)/2``, the sparsifier
``H = (vol(G)/M)·W̄`` has expectation ``D·S`` (the unbiasedness contract,
``test_estimator_unbiased.py``), and its Laplacian satisfies

    (1 − ε)·L_G ≼ L_H ≼ (1 + ε)·L_G,    L_G = Laplacian of D·S,

with ``M = O(T·m·log n / ε²)`` (NetSMF's theorem; LightNE Thm 3.1/3.2 keep
it under the degree-based downsampling coin).  So ε — measured exactly here,
from the generalized eigenvalues of ``(L_H, L_G)`` — must fall like
``M^−½``, and downsampling, which keeps only ``~n·log n`` of a dense graph's
edges, may cost a constant factor in ε but not a factor that grows with
``M``.  Both sides are divided by ``vol(G)``, so what is compared is
``W̄/M`` against ``D·S/vol`` (:func:`expected_share`).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from repro.sparsifier.downsampling import graph_downsampling_probabilities
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges
from tests.contracts.spectral_analysis import adjacency_laplacian, spectral_epsilon
from tests.contracts.test_estimator_unbiased import expected_share

WINDOW = 5
# Draw budgets as multiples of T·m, and the seeds whose ε is averaged at each.
MULTIPLIERS = (1, 4, 16)
SEEDS = (0, 1, 2, 3)
# The fitted log-log slope of ε against M must lie within this of −½.
SLOPE_TOLERANCE = 0.2


def _weighted_self_loops():
    graph = erdos_renyi_graph(100, 0.08, seed=0)
    src, dst = graph.edge_endpoints()
    once = src < dst
    rng = np.random.default_rng(0)
    loops = rng.choice(100, 10, replace=False)
    return from_edges(
        np.r_[src[once], loops],
        np.r_[dst[once], loops],
        np.r_[rng.uniform(0.5, 3.0, once.sum()), rng.uniform(0.5, 2.0, 10)],
        drop_self_loops=False,
    )


GRAPHS = {
    "er": lambda: erdos_renyi_graph(200, 0.05, seed=0),
    "dcsbm": lambda: dcsbm_graph(200, 4, avg_degree=10, seed=0)[0],
    "dense_er": lambda: erdos_renyi_graph(150, 0.4, seed=0),
    # The weighted walk steps in a Python loop: fewer seeds.
    "weighted_self_loops": _weighted_self_loops,
}


@functools.lru_cache(maxsize=None)
def _graph_and_exact_laplacian(kind):
    graph = GRAPHS[kind]()
    return graph, adjacency_laplacian(expected_share(graph, WINDOW))


def sparsifier_epsilon(kind, multiplier, downsample, seed):
    """Exact ε of one sparsifier with ``M = multiplier·T·m`` draws."""
    graph, lap_g = _graph_and_exact_laplacian(kind)
    n = graph.num_vertices
    config = PathSamplingConfig(
        window=WINDOW,
        num_samples=PathSamplingConfig.samples_for_multiplier(
            graph, WINDOW, multiplier
        ),
        downsample=downsample,
    )
    rows, cols, sums, draws = sample_sparsifier_edges(graph, config, seed)
    counts = sp.csr_matrix((sums, (rows, cols)), shape=(n, n)).toarray()
    return spectral_epsilon(adjacency_laplacian((counts + counts.T) / 2 / draws), lap_g)


@functools.lru_cache(maxsize=None)
def mean_epsilons(kind, downsample):
    """Mean ε over the seeds at each multiplier."""
    seeds = SEEDS[:3] if kind == "weighted_self_loops" else SEEDS
    return np.array([
        np.mean([sparsifier_epsilon(kind, k, downsample, s) for s in seeds])
        for k in MULTIPLIERS
    ])


class TestExactEpsilon:
    def test_known_pencils(self):
        graph, lap_g = _graph_and_exact_laplacian("er")
        assert spectral_epsilon(lap_g, lap_g) == pytest.approx(0.0, abs=1e-9)
        assert spectral_epsilon(1.5 * lap_g, lap_g) == pytest.approx(0.5)
        # Dropping every edge at a vertex leaves its indicator direction
        # outside L_H's range: λ = 0, the worst a sparsifier can do.
        share = expected_share(graph, WINDOW)
        share[0, :] = share[:, 0] = 0.0
        assert spectral_epsilon(adjacency_laplacian(share), lap_g) >= 1.0 - 1e-9


class TestEpsilonFallsLikeInverseRootM:
    @pytest.mark.parametrize("downsample", [True, False], ids=["coin", "no_coin"])
    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_log_log_slope_is_minus_one_half(self, kind, downsample):
        epsilons = mean_epsilons(kind, downsample)
        slope = np.polyfit(np.log(MULTIPLIERS), np.log(epsilons), 1)[0]
        assert abs(slope + 0.5) <= SLOPE_TOLERANCE, (
            f"ε {np.round(epsilons, 3)} at M = {MULTIPLIERS}·T·m: slope {slope:.2f}"
        )
        # And the sparsifier is a spectral approximation at all: the full
        # budget leaves no direction of L_G unrepresented.
        assert epsilons[-1] < 0.5


class TestDownsamplingOnADenseGraph:
    """m/n ≫ log n: the coin keeps ~n·log n edges, and ε pays a constant."""

    def test_keeps_about_n_log_n_edges(self):
        graph, _ = _graph_and_exact_laplacian("dense_er")
        n = graph.num_vertices
        assert graph.num_edges / n > 5 * np.log(n)
        kept = graph_downsampling_probabilities(graph).sum()
        # Every p_e < 1 here, so Σ p_e = C·Σ_e (1/d_u + 1/d_v) = C·n, C = log n.
        assert kept == pytest.approx(n * np.log(n), rel=1e-9)
        assert kept < 0.2 * graph.num_edges

    def test_epsilon_within_a_constant_of_no_downsampling(self):
        ratios = mean_epsilons("dense_er", True) / mean_epsilons("dense_er", False)
        assert np.all(ratios < 4.0), ratios
        # The constant does not grow with M.
        assert ratios[-1] < 1.5 * ratios[0], ratios
