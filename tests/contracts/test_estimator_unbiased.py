"""The sparsifier is an unbiased estimator of the walk matrix (Thm 3.1/3.2).

Stated once: with ``P = D⁻¹A``, ``S = (1/T)·Σ_{r=1..T} Pʳ`` and ``M`` draws,
the symmetrised count matrix ``W̄ = (W + Wᵀ)/2`` of the sampler satisfies

    E[W̄(x, y)] = (M / vol(G)) · d_x · S(x, y)

entry by entry — with and without the downsampling coin, however the draws
are cut into slabs, on weighted graphs, graphs with self-loops, isolated
vertices and several components.  The first half checks it head-on: the
mean of ``K`` independent sparsifiers against the exact dense expectation
within a CLT bound.  The second half holds the invariants every single
sparsifier satisfies (hypothesis-generated graphs and budgets).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edges
from repro.sparsifier.aggregation import aggregate_dict
from repro.sparsifier.builder import build_sparsifier, sparsifier_to_netmf_matrix
from repro.sparsifier.path_sampling import (
    PathSamplingConfig,
    per_draw_samples,
    sample_sparsifier_edges,
)

WINDOW = 3
# |z| of the worst of ~100 entries; 5σ leaves the fixed seeds a wide margin
# (they read 1.5–3.6) and a biased entry reads in the hundreds.
Z_BOUND = 5.0


def _graphs():
    rng = np.random.default_rng(0)
    src, dst = rng.integers(0, 8, 14), rng.integers(0, 8, 14)
    ring = np.arange(4)
    return {
        "weighted": from_edges(src, dst, rng.random(14) + 0.2),
        "self_loops": from_edges(
            np.r_[src, 1, 4], np.r_[dst, 1, 4], drop_self_loops=False
        ),
        "weighted_self_loops": from_edges(
            np.r_[src[:8], 2], np.r_[dst[:8], 2], np.r_[rng.random(8) + 0.5, 0.7],
            drop_self_loops=False,
        ),
        "isolated_vertices": from_edges(src, dst, num_vertices=11),
        "two_components": from_edges(
            np.r_[src % 4, 4 + dst % 4, ring, 4 + ring],
            np.r_[dst % 4, 4 + src % 4, (ring + 1) % 4, 4 + (ring + 1) % 4],
        ),
    }


GRAPHS = _graphs()


def expected_share(graph, window=WINDOW):
    """``E[W̄] / M = D·S / vol`` as a dense matrix (sums to one)."""
    adjacency = graph.adjacency().toarray().astype(np.float64)
    degrees = adjacency.sum(axis=1)
    walk = adjacency / np.where(degrees > 0, degrees, 1.0)[:, None]
    powers = sum(np.linalg.matrix_power(walk, r) for r in range(1, window + 1))
    return degrees[:, None] * powers / window / adjacency.sum()


def assert_unbiased(graph, sample, repeats):
    """``sample(seed) -> (rows, cols, sums, draws)``: mean share vs exact."""
    n = graph.num_vertices
    total = np.zeros((n, n))
    total_sq = np.zeros((n, n))
    for seed in range(repeats):
        rows, cols, sums, draws = sample(1000 + seed)
        counts = sp.csr_matrix((sums, (rows, cols)), shape=(n, n)).toarray()
        share = (counts + counts.T) / 2 / draws
        total += share
        total_sq += share * share
    mean = total / repeats
    exact = expected_share(graph)
    assert exact.sum() == pytest.approx(1.0)
    # Mass only where the walk can go: exact zeros are exact.
    assert not mean[exact == 0].any()
    variance = np.maximum(total_sq / repeats - mean * mean, 0.0)
    stderr = np.sqrt(variance / repeats)
    support = exact > 0
    # An entry that never varied must sit on its expectation (float noise).
    z = np.abs(mean - exact)[support] / np.maximum(stderr[support], 1e-12)
    assert z.max() < Z_BOUND, f"worst entry is {z.max():.1f} standard errors off"


class TestUnbiased:
    @pytest.mark.parametrize("slabs", [1, 5], ids=["one_slab", "slabs"])
    @pytest.mark.parametrize("downsample", [True, False], ids=["coin", "no_coin"])
    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_path_sampler(self, kind, downsample, slabs):
        graph = GRAPHS[kind]
        # The weighted walk steps in a Python loop: smaller samples.
        budget, repeats = (300, 80) if graph.weights is not None else (3000, 100)
        batch_size = budget // slabs if slabs > 1 else 10**9
        config = PathSamplingConfig(
            window=WINDOW, num_samples=budget, downsample=downsample,
            downsample_constant=0.6,  # p_e < 1 on most edges of these graphs
        )
        stats = {}

        def sample(seed):
            return sample_sparsifier_edges(
                graph, config, seed, batch_size=batch_size, stats=stats
            )

        assert_unbiased(graph, sample, repeats)
        assert slabs - 1 <= stats["batches"] <= slabs + 1
        assert (stats["walk_samples"] < stats["draws"]) == downsample


def random_connected_graph(edge_pairs):
    """Build a graph from hypothesis pairs, padded with a spanning path so
    every vertex has positive degree."""
    src = np.array([a for a, _ in edge_pairs], dtype=np.int64)
    dst = np.array([b for _, b in edge_pairs], dtype=np.int64)
    n = int(max(src.max(initial=0), dst.max(initial=0))) + 2
    path_src = np.arange(n - 1)
    path_dst = np.arange(1, n)
    return from_edges(
        np.concatenate([src, path_src]),
        np.concatenate([dst, path_dst]),
        num_vertices=n,
    )


graph_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=40,
).map(random_connected_graph)


class TestSamplingInvariants:
    @given(graph_strategy, st.integers(1, 4), st.integers(100, 800))
    @settings(max_examples=25, deadline=None)
    def test_endpoints_in_range(self, graph, window, budget):
        config = PathSamplingConfig(window=window, num_samples=budget,
                                    downsample=False)
        u, v, w, draws = per_draw_samples(graph, config, seed=0)
        assert u.size == v.size == w.size == draws  # no coin: every draw kept
        assert u.min() >= 0 and u.max() < graph.num_vertices
        assert v.min() >= 0 and v.max() < graph.num_vertices
        np.testing.assert_array_equal(w, 1.0)
        rows, cols, sums, _ = sample_sparsifier_edges(
            graph, config, seed=0, batch_size=97
        )
        assert 0 <= rows.min() and cols.max() < graph.num_vertices
        assert np.all(rows <= cols)
        assert sums.sum() == draws

    @given(graph_strategy, st.integers(200, 600))
    @settings(max_examples=20, deadline=None)
    def test_downsampled_weights_at_least_one(self, graph, budget):
        config = PathSamplingConfig(window=2, num_samples=budget,
                                    downsample=True)
        _, _, w, _ = per_draw_samples(graph, config, seed=1)
        _, _, sums, _ = sample_sparsifier_edges(graph, config, seed=1, batch_size=97)
        for weights in (w, sums):
            if weights.size:
                assert np.all(weights >= 1.0 - 1e-12)

    @given(graph_strategy, st.integers(200, 800))
    @settings(max_examples=20, deadline=None)
    def test_counts_mass_equals_weights(self, graph, budget):
        """The count matrix holds exactly the survivors' ``1/p_e``: as one
        slab it is the dict oracle over the per-draw triples, bit for bit;
        cut into slabs, every survivor's weight is still in it."""
        n = graph.num_vertices
        config = PathSamplingConfig(window=2, num_samples=budget,
                                    downsample=True)
        u, v, w, draws = per_draw_samples(graph, config, seed=2)
        result = build_sparsifier(graph, config, seed=2, batch_size=10**9)
        assert result.num_draws == draws
        rows, cols, sums = aggregate_dict(np.minimum(u, v), np.maximum(u, v), w, n)
        oracle = sp.csr_matrix((sums, (rows, cols)), shape=(n, n))
        assert (result.counts != oracle).nnz == 0
        stats = {}
        _, _, sliced, _ = sample_sparsifier_edges(
            graph, config, seed=2, batch_size=97, stats=stats
        )
        assert 1.0 <= sliced.sum() / stats["walk_samples"] <= 1.0 / _least_coin(graph)


def _least_coin(graph):
    from repro.sparsifier.downsampling import graph_downsampling_probabilities

    return float(graph_downsampling_probabilities(graph).min())


class TestEstimatorInvariants:
    @given(graph_strategy, st.integers(300, 900))
    @settings(max_examples=15, deadline=None)
    def test_matrix_symmetric_nonnegative(self, graph, budget):
        config = PathSamplingConfig(window=2, num_samples=budget,
                                    downsample=False)
        result = build_sparsifier(graph, config, seed=3)
        matrix = sparsifier_to_netmf_matrix(graph, result)
        assert matrix.shape == (graph.num_vertices,) * 2
        assert matrix.nnz == 0 or matrix.data.min() >= 0.0
        asym = matrix - matrix.T
        assert asym.nnz == 0 or np.abs(asym.data).max() < 1e-9

    @given(graph_strategy)
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_sparsifier(self, graph):
        config = PathSamplingConfig(window=3, num_samples=400, downsample=True)
        a = build_sparsifier(graph, config, seed=7, batch_size=97)
        b = build_sparsifier(graph, config, seed=7, batch_size=97)
        assert (a.counts != b.counts).nnz == 0
        assert a.num_draws == b.num_draws
