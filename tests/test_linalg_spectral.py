"""Tests for Chebyshev spectral propagation (ProNE filter)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FactorizationError
from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph
from repro.linalg import kernels, spectral
from repro.graph.csr import CSRGraph
from repro.linalg.spectral import (
    _adjacency_plus_identity,
    _modulated_operator,
    chebyshev_gaussian_filter,
    propagation_operator,
    rescale_embedding,
    spectral_propagation,
)


@pytest.fixture(scope="module")
def bundle():
    return dcsbm_graph(150, 3, avg_degree=10, mixing=0.1, seed=0)


def _historical_modulated(da, mu):
    """The two-``sp.eye`` construction ``_modulated_operator`` replaced,
    restated verbatim at ``da``'s dtype."""
    n = da.shape[0]
    eye = sp.eye(n, format="csr", dtype=da.dtype)
    return ((eye - da) - mu * eye).tocsr()


@st.composite
def _graphs(draw):
    """Small graphs with self-loops, optional weights and trailing isolated
    vertices (weights bounded away from 0 so no entry rounds away)."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 3 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    sources, targets = draw(ends), draw(ends)
    weights = draw(st.one_of(
        st.none(), st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m)
    ))
    isolated = draw(st.integers(0, 3))
    return from_edges(
        sources, targets, weights, num_vertices=n + isolated,
        drop_self_loops=False,
    )


def _assert_same_csr(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _historical_operator(graph, dtype):
    """``D⁻¹(A + I)`` as the sparse×diagonal product it was built by,
    restated verbatim, then scipy's cast to ``dtype``."""
    n = graph.num_vertices
    adjacency = (graph.adjacency() + sp.eye(n, format="csr")).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
    product = (sp.diags(inv) @ adjacency).tocsr()
    return product if dtype == np.float64 else product.astype(dtype)


@st.composite
def _graphs_with_zero_weights(draw):
    """Like :func:`_graphs`, with some weights exactly zero (self-loops
    included) and the targets stored as int32 or int64."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 3 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    sources, targets = draw(ends), draw(ends)
    weights = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.25]), min_size=m, max_size=m),
    ))
    graph = from_edges(
        sources, targets, weights, num_vertices=n + draw(st.integers(0, 3)),
        drop_self_loops=False,
    )
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    return CSRGraph(graph.offsets, graph.targets.astype(index_dtype), graph.weights)


class TestAdjacencyPlusIdentity:
    """``A + I`` built from the graph's arrays equals scipy's sum array for
    array: merge order, dropped zero sums and index dtypes included."""

    @staticmethod
    def _verbatim(graph):
        n = graph.num_vertices
        return (graph.adjacency() + sp.eye(n, format="csr")).tocsr()

    @settings(max_examples=120, deadline=None)
    @given(
        graph=_graphs_with_zero_weights(),
        block=st.sampled_from([1, 7, None]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_equals_scipy_sum(self, graph, block, dtype):
        saved = spectral.OPERATOR_BLOCK_NNZ
        spectral.OPERATOR_BLOCK_NNZ = saved if block is None else block
        try:
            got = _adjacency_plus_identity(graph)
            operator = propagation_operator(graph, dtype)
        finally:
            spectral.OPERATOR_BLOCK_NNZ = saved
        _assert_same_csr(got, self._verbatim(graph))
        _assert_same_csr(operator, _historical_operator(graph, dtype))

    def test_unsorted_row_takes_the_verbatim_sum(self):
        # Row 0 holds [2, 1] and row 1 a duplicate: neither strictly increasing.
        graph = CSRGraph(
            np.array([0, 2, 4, 5, 6]), np.array([2, 1, 0, 0, 0, 1]),
            np.array([1.0, 2.0, 2.0, 4.0, 1.0, 4.0]), check=False,
        )
        for mutate in (False, True):
            if mutate:  # and one sorted row next to the unsorted one
                graph = CSRGraph(
                    graph.offsets, np.array([1, 2, 0, 0, 0, 1]), graph.weights,
                    check=False,
                )
            _assert_same_csr(_adjacency_plus_identity(graph), self._verbatim(graph))


class TestPropagationOperator:
    """The in-place build equals the sparse×diagonal product array for array,
    each row's stored order included: descending in float64 (the order
    scipy's sparse product emits), ascending in float32 (scipy's cast sorts
    its rows).  That order fixes every SPMM's accumulation order."""

    @settings(max_examples=80, deadline=None)
    @given(
        graph=_graphs(),
        dtype=st.sampled_from([np.float64, np.float32]),
        block=st.sampled_from([1, 7, None]),
    )
    def test_equals_the_historical_product(self, graph, dtype, block):
        saved = spectral.OPERATOR_BLOCK_NNZ
        spectral.OPERATOR_BLOCK_NNZ = saved if block is None else block
        try:
            got = propagation_operator(graph, dtype)
        finally:
            spectral.OPERATOR_BLOCK_NNZ = saved
        _assert_same_csr(got, _historical_operator(graph, dtype))


class TestModulatedOperator:
    """The block-by-block build equals the historical sparse arithmetic array
    for array — entry order included, which fixes every SPMM's accumulation
    order and so every downstream bit.

    ``μ`` is drawn where ``(1 − da_uu) − μ`` cannot cancel to exactly zero
    (``1 − da_uu`` is exact for ``da_uu ≥ ½`` and ``1 − μ`` is not a float):
    the sparse arithmetic drops a cancelled diagonal, the one-pass build has
    always stored it as ``0.0``.  A float32 operator is a cast, which scipy
    stores sorted; its sparse arithmetic then merges each row in sorted order,
    while the build keeps every row's diagonal first — so there the two are
    compared row-sorted, after checking that order.  A column-tiled build
    (tiles of one, seven or all columns) is compared through its row-major
    reconstruction, the operator its products walk."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=_graphs(),
        dtype=st.sampled_from([np.float64, np.float32]),
        mu=st.sampled_from([0.2, -0.3]),
        block=st.sampled_from([1, 7, None]),
        tile=st.sampled_from([1, 7, None]),
    )
    def test_equals_the_historical_construction(self, graph, dtype, mu, block, tile):
        da = propagation_operator(graph, dtype)
        row_bytes = 0 if tile is None else 8
        saved = spectral.OPERATOR_BLOCK_NNZ, kernels.TILE_BYTES, kernels.HOT_SHARE
        spectral.OPERATOR_BLOCK_NNZ = saved[0] if block is None else block
        kernels.TILE_BYTES, kernels.HOT_SHARE = (tile or 1) * row_bytes, 2.0
        try:
            got = _modulated_operator(da, mu, row_bytes)
        finally:
            spectral.OPERATOR_BLOCK_NNZ, kernels.TILE_BYTES, kernels.HOT_SHARE = saved
        if isinstance(got, kernels.TiledCSR):
            got = got.tocsr()
        want = _historical_modulated(da, mu)
        if da.has_canonical_format:
            np.testing.assert_array_equal(
                got.indices[got.indptr[:-1]], np.arange(da.shape[0])
            )
            got, want = got.copy(), want.copy()
            got.sort_indices()
            want.sort_indices()
        _assert_same_csr(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_without_a_diagonal_takes_the_fallback(self, dtype):
        # Rows 0 and 2 store their diagonal after an off-diagonal entry, as
        # the real operator does; row 1 stores none.
        da = sp.csr_matrix(
            (
                np.array([0.5, 0.5, 0.4, 0.6, 0.3, 0.7], dtype=dtype),
                np.array([1, 0, 0, 2, 2, 1]),
                np.array([0, 2, 4, 6]),
            ),
            shape=(3, 3),
        )
        _assert_same_csr(_modulated_operator(da, 0.2), _historical_modulated(da, 0.2))


class TestFilter:
    def test_shape_preserved(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 16))
        out = chebyshev_gaussian_filter(graph, x, order=5)
        assert out.shape == x.shape

    def test_order_one_identity(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 8))
        out = chebyshev_gaussian_filter(graph, x, order=1)
        np.testing.assert_allclose(out, x)

    def test_deterministic(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 8))
        a = chebyshev_gaussian_filter(graph, x, order=6)
        b = chebyshev_gaussian_filter(graph, x, order=6)
        np.testing.assert_allclose(a, b)

    def test_shape_mismatch_rejected(self, bundle, rng):
        graph, _ = bundle
        with pytest.raises(FactorizationError):
            chebyshev_gaussian_filter(graph, rng.standard_normal((7, 4)))

    def test_invalid_order(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4))
        with pytest.raises(FactorizationError):
            chebyshev_gaussian_filter(graph, x, order=0)

    @pytest.mark.parametrize(
        "knob", [{"mu": np.nan}, {"theta": np.inf}, {"mu": -np.inf}],
        ids=["mu_nan", "theta_inf", "mu_minus_inf"],
    )
    def test_non_finite_mu_theta_rejected(self, bundle, rng, knob):
        """They used to run the whole filter and die in numpy's eigensolver
        with a ``LinAlgError``; ProNE reaches the same check."""
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4))
        with pytest.raises(FactorizationError, match="finite"):
            chebyshev_gaussian_filter(graph, x, **knob)
        with pytest.raises(FactorizationError, match="finite"):
            spectral_propagation(graph, x, **knob)

    def test_smooths_towards_neighbors(self, bundle, rng):
        """Propagation should increase within-community coherence of a noisy
        community-indicator signal (the whole point of step 2)."""
        graph, labels = bundle
        comm = labels[:, :3].argmax(axis=1)
        indicator = np.eye(3)[comm] + 0.8 * rng.standard_normal((graph.num_vertices, 3))
        out = spectral_propagation(graph, indicator, order=10)

        def coherence(x):
            x = x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)
            sims = x @ x.T
            same = comm[:, None] == comm[None, :]
            return sims[same].mean() - sims[~same].mean()

        assert coherence(out) > coherence(indicator)


class TestRescale:
    def test_shape(self, rng):
        m = rng.standard_normal((40, 10))
        out = rescale_embedding(m, 6)
        assert out.shape == (40, 6)

    def test_orthogonal_columns(self, rng):
        m = rng.standard_normal((40, 8))
        out = rescale_embedding(m)
        gram = out.T @ out
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8

    def test_invalid_dimension(self, rng):
        with pytest.raises(FactorizationError):
            rescale_embedding(rng.standard_normal((10, 4)), 5)


class TestSpectralPropagation:
    def test_end_to_end_shape(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 12))
        out = spectral_propagation(graph, x)
        assert out.shape == x.shape

    def test_improves_classification_signal(self, bundle, rng):
        """Classification accuracy from a weak spectral embedding should not
        degrade after propagation (paper: propagation 'stands on shoulders')."""
        from repro.embedding.prone import ProNEParams, prone_embedding
        from repro.eval.node_classification import evaluate_node_classification

        graph, labels = bundle
        raw = prone_embedding(
            graph, ProNEParams(dimension=16, propagate=False), seed=0
        )
        enhanced = spectral_propagation(graph, raw.vectors)
        before = evaluate_node_classification(
            raw.vectors, labels, 0.5, repeats=2, seed=1
        )
        after = evaluate_node_classification(enhanced, labels, 0.5, repeats=2, seed=1)
        assert after.micro_f1 >= before.micro_f1 - 0.05


class TestFrequencyResponse:
    """The filter is diagonal in the Laplacian eigenbasis; its response must
    favor smooth (low-λ, community-carrying) components over mid-spectrum
    noise — the mechanism behind the 'enhancement'."""

    def test_smooth_components_survive_best(self):
        from repro.graph.generators import erdos_renyi_graph
        from repro.linalg.spectral import _row_normalized_adjacency

        g = erdos_renyi_graph(80, 0.2, seed=0)
        da = _row_normalized_adjacency(g).toarray()
        n = g.num_vertices
        laplacian = np.eye(n) - da
        evals, evecs = np.linalg.eig(laplacian)
        order = np.argsort(evals.real)
        evals = evals.real[order]
        evecs = evecs.real[:, order]

        def amplification(index: int) -> float:
            v = np.ascontiguousarray(evecs[:, index : index + 1])
            out = chebyshev_gaussian_filter(g, v, order=10)
            return abs(float((v.T @ out).item() / (v.T @ v).item()))

        smooth = amplification(1)  # first non-trivial, λ small
        mid_index = int(np.argmin(np.abs(evals - 1.0)))
        mid = amplification(mid_index)
        assert smooth > 3 * mid

    def test_filter_is_linear(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 3))
        y = rng.standard_normal((graph.num_vertices, 3))
        fx = chebyshev_gaussian_filter(graph, x, order=6)
        fy = chebyshev_gaussian_filter(graph, y, order=6)
        fxy = chebyshev_gaussian_filter(graph, 2.0 * x + y, order=6)
        np.testing.assert_allclose(fxy, 2.0 * fx + fy, rtol=1e-8, atol=1e-8)
