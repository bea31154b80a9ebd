"""Tests for the sparsifier stage around its one sampler.

``build_sparsifier`` must assemble exactly what downsampled PathSampling
(``sample_sparsifier_edges``) emits, bit for bit at every worker count on
both execution substrates; and the widened workloads (weighted /
bipartite) must run the full builders → sparsifier → eval path.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.errors import GraphConstructionError, UnsupportedGraphError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from repro.sparsifier.builder import build_sparsifier, validate_sparsifier_graph
from repro.sparsifier.path_sampling import PathSamplingConfig, sample_sparsifier_edges


def _matches_sampler(result, graph, config, seed, batch_size) -> bool:
    """``result`` is the serial sampler's stream assembled into a CSR
    matrix, bit for bit, with the same realized draw count."""
    n = graph.num_vertices
    rows, cols, sums, draws = sample_sparsifier_edges(
        graph, config, seed, batch_size=batch_size, workers=1, backend="thread"
    )
    counts = sp.csr_matrix((sums, (rows, cols)), shape=(n, n))
    return result.num_draws == draws and (result.counts != counts).nnz == 0


class TestSampler:
    def test_honours_the_call_contract(self, er_graph):
        """A pre-reduced canonical stream (distinct pairs of the upper
        triangle in key order), and ``draws`` equal to the realized budget
        ``M`` the estimator divides by."""
        config = PathSamplingConfig(window=2, num_samples=4000)
        stats = {}
        rows, cols, weights, draws = sample_sparsifier_edges(
            er_graph, config, np.random.default_rng(5), batch_size=1000,
            workers=1, backend="thread", stats=stats,
        )
        assert rows.shape == cols.shape == weights.shape
        assert rows.dtype == cols.dtype == np.int64
        assert weights.min() > 0
        assert np.all(rows <= cols)
        assert np.all(np.diff(rows * er_graph.num_vertices + cols) > 0)
        assert abs(draws - config.num_samples) <= er_graph.num_edges
        assert stats["walk_samples"] >= stats["distinct"] == rows.size


class TestPathBackendBitIdentity:
    """The stage is the sampler's stream, whoever walks the slabs."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_lightne_style_config(self, er_graph, workers, backend):
        config = PathSamplingConfig(window=3, num_samples=3000, downsample=True)
        result = build_sparsifier(
            er_graph, config, seed=11, workers=workers, backend=backend,
            batch_size=500,
        )
        assert _matches_sampler(result, er_graph, config, 11, 500)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_netsmf_style_config(self, er_graph, workers):
        config = PathSamplingConfig(window=2, num_samples=2000, downsample=False)
        result = build_sparsifier(
            er_graph, config, seed=12, aggregator="sort", workers=workers,
            batch_size=500,
        )
        assert _matches_sampler(result, er_graph, config, 12, 500)

    def test_worker_count_invariance_through_layer(self, er_graph):
        config = PathSamplingConfig(window=3, num_samples=3000, downsample=True)
        results = [
            build_sparsifier(
                er_graph, config, seed=13, workers=w, backend=b, batch_size=500,
            )
            for w in (1, 2, 4)
            for b in ("thread", "process")
        ]
        assert all(_matches_sampler(r, er_graph, config, 13, 500) for r in results)


class TestWeightedGraphs:
    def test_weighted_seeding_flag_path(self):
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        config = PathSamplingConfig(window=2, num_samples=500)
        result = build_sparsifier(g, config, seed=0)
        assert result.stats["weighted_seeding"] == 1.0

    def test_unweighted_flag_zero(self, er_graph):
        assert validate_sparsifier_graph(er_graph) is False

    def test_nonpositive_weight_rejected(self):
        g = from_edges([0, 1, 2], [1, 2, 3], [1.0, 0.0, 2.0])
        config = PathSamplingConfig(window=2, num_samples=500)
        with pytest.raises(UnsupportedGraphError):
            build_sparsifier(g, config, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected_before_sampling(self, bad):
        # An unchecked graph (as a memmapped CSR v2 load builds) must fail
        # with the library's error, not deep inside numpy's sampler.
        g = erdos_renyi_graph(200, 0.05, seed=0)
        weights = np.ones(g.targets.size)
        weights[[0, 1, 7, 9]] = bad
        unchecked = CSRGraph(g.offsets, g.targets, weights, check=False)
        with pytest.raises(UnsupportedGraphError, match="finite"):
            lightne_embedding(unchecked, LightNEParams(dimension=8), seed=0)

    def test_weighted_end_to_end(self):
        rng = np.random.default_rng(3)
        g = erdos_renyi_graph(50, 0.2, seed=4)
        src, dst = g.edge_endpoints()
        weighted = from_edges(
            src, dst, rng.uniform(0.5, 3.0, src.size), symmetrize=False
        )
        params = LightNEParams(dimension=8, window=2, sample_multiplier=2)
        result = lightne_embedding(weighted, params, seed=0)
        assert result.vectors.shape == (50, 8)
        assert np.all(np.isfinite(result.vectors))


def from_bipartite_edges(
    left_sources, right_targets, weights=None, *, num_left=None, num_right=None
) -> CSRGraph:
    """The union graph of a bipartite edge set.

    Left vertices keep their ids ``[0, num_left)``; right vertex ``j`` is
    relabeled to ``num_left + j``, giving one undirected graph over
    ``num_left + num_right`` vertices whose every edge crosses the
    partition (user–item / author–paper graphs).  The counts default to
    ``max id + 1`` per side.
    """
    left = np.asarray(left_sources, dtype=np.int64).ravel()
    right = np.asarray(right_targets, dtype=np.int64).ravel()
    if left.shape != right.shape:
        raise GraphConstructionError(
            f"left and right endpoint arrays differ in length: "
            f"{left.size} vs {right.size}"
        )
    if left.size and (left.min() < 0 or right.min() < 0):
        raise GraphConstructionError("vertex ids must be non-negative")
    if num_left is None:
        num_left = int(left.max(initial=-1) + 1)
    elif left.size and left.max() >= num_left:
        raise GraphConstructionError(
            "num_left is smaller than the largest left vertex id + 1"
        )
    if num_right is None:
        num_right = int(right.max(initial=-1) + 1)
    elif right.size and right.max() >= num_right:
        raise GraphConstructionError(
            "num_right is smaller than the largest right vertex id + 1"
        )
    return from_edges(
        left,
        right + num_left,
        weights,
        num_vertices=num_left + num_right,
        symmetrize=True,
        drop_self_loops=False,  # sides are disjoint; no loops possible
    )


class TestBipartite:
    def test_builder_relabels_right_side(self):
        g = from_bipartite_edges([0, 1, 2], [0, 0, 1], num_left=3, num_right=2)
        assert g.num_vertices == 5
        src, dst = g.edge_endpoints()
        # Every edge crosses the partition boundary at index 3.
        assert np.all((src < 3) != (dst < 3))

    def test_builder_validation(self):
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 1], [0])
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 5], [0, 1], num_left=2)
        with pytest.raises(GraphConstructionError):
            from_bipartite_edges([0, 1], [0, 7], num_right=3)

    def test_end_to_end_embedding(self):
        rng = np.random.default_rng(7)
        left = rng.integers(0, 40, 400)
        right = rng.integers(0, 25, 400)
        g = from_bipartite_edges(left, right, num_left=40, num_right=25)
        params = LightNEParams(dimension=8, window=2, sample_multiplier=2)
        result = lightne_embedding(g, params, seed=0)
        assert result.vectors.shape == (65, 8)
        users, items = result.vectors[:40], result.vectors[40:]
        assert users.shape == (40, 8) and items.shape == (25, 8)
        assert np.all(np.isfinite(result.vectors))
