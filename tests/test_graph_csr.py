"""Tests for the CSR graph container."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph


def iter_edges(graph):
    """The directed edges of ``graph`` as ``(u, v, w)`` tuples."""
    for u in range(graph.num_vertices):
        for k in range(graph.offsets[u], graph.offsets[u + 1]):
            w = 1.0 if graph.weights is None else float(graph.weights[k])
            yield u, int(graph.targets[k]), w


class TestConstruction:
    def test_basic_sizes(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.num_directed_edges == 6

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.volume == 0.0

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0]))

    def test_offsets_must_match_targets(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_targets_in_range(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_weights_parallel(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0]))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(GraphConstructionError, match="finite"):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([bad, 1.0]))

    def test_empty_offsets_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_unsorted_row_rejected(self):
        """``has_edge`` binary-searches a row, so an unsorted one would hide
        true edges (here ``has_edge(0, 1)`` would answer ``False``)."""
        with pytest.raises(GraphConstructionError, match="vertex 0"):
            CSRGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
        with pytest.raises(GraphConstructionError, match="vertex 2"):
            CSRGraph(np.array([0, 1, 1, 3]), np.array([2, 2, 0]))


class TestDegrees:
    def test_triangle_degrees(self, triangle):
        np.testing.assert_array_equal(triangle.degrees(), [2, 2, 2])

    def test_star_degrees(self, star):
        degrees = star.degrees()
        assert degrees[0] == 5
        assert all(degrees[1:] == 1)

    def test_degree_scalar(self, star):
        assert star.degree(0) == 5
        assert star.degree(3) == 1

    def test_weighted_degrees_unweighted(self, triangle):
        np.testing.assert_allclose(triangle.weighted_degrees(), [2.0, 2.0, 2.0])

    def test_weighted_degrees(self, weighted_triangle):
        # Edges: (0,1,w=1), (1,2,w=2), (2,0,w=3).
        np.testing.assert_allclose(weighted_triangle.weighted_degrees(), [4.0, 3.0, 5.0])

    def test_weighted_degrees_with_isolated_vertex(self):
        g = from_edges([0], [1], [2.0], num_vertices=4)
        np.testing.assert_allclose(g.weighted_degrees(), [2.0, 2.0, 0.0, 0.0])

    def test_last_row_keeps_its_last_weight_before_trailing_isolated(self):
        """The clipped-``reduceat`` bug: vertex 2 used to lose the weight-4
        edge because vertices 3 and 4 are isolated."""
        g = from_edges([0, 0, 1], [1, 2, 2], weights=[1, 2, 4], num_vertices=5)
        np.testing.assert_array_equal(g.weighted_degrees(), [3, 5, 6, 0, 0])
        assert g.weighted_degrees().sum() == g.volume == 14

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 11), st.integers(0, 11), st.integers(1, 1000)
            ),
            min_size=1, max_size=60,
        ),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_degrees_are_adjacency_row_sums(self, edges, stride, trailing):
        """Whatever rows are empty: ids are spread by ``stride`` (interior
        isolated vertices) and ``trailing`` isolated vertices follow the last
        edge.  Integer weights make it exact."""
        src = np.array([a for a, _, _ in edges]) * stride
        dst = np.array([b for _, b, _ in edges]) * stride
        weights = np.array([w for _, _, w in edges], dtype=np.float64)
        keep = src != dst
        if not keep.any():
            return
        n = int(max(src[keep].max(), dst[keep].max())) + 1 + trailing
        g = from_edges(src[keep], dst[keep], weights=weights[keep], num_vertices=n)
        row_sums = np.asarray(g.adjacency().sum(axis=1)).ravel()
        degrees = g.weighted_degrees()
        assert degrees.dtype == np.float64
        np.testing.assert_array_equal(degrees, row_sums)
        assert degrees.sum() == g.volume

    def test_volume_unweighted(self, triangle):
        assert triangle.volume == 6.0

    def test_volume_weighted(self, weighted_triangle):
        assert weighted_triangle.volume == pytest.approx(12.0)


class TestAccessors:
    def test_neighbors_sorted(self, er_graph):
        for u in range(er_graph.num_vertices):
            nbrs = er_graph.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_ith_neighbor(self, star):
        assert star.ith_neighbor(0, 0) == 1
        assert star.ith_neighbor(0, 4) == 5

    def test_ith_neighbor_out_of_range(self, star):
        with pytest.raises(IndexError):
            star.ith_neighbor(1, 1)
        with pytest.raises(IndexError):
            star.ith_neighbor(0, -1)

    def test_ith_neighbors_vectorized(self, star):
        out = star.ith_neighbors(np.array([0, 0, 1]), np.array([0, 2, 0]))
        np.testing.assert_array_equal(out, [1, 3, 0])

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert path4.has_edge(1, 0)
        assert not path4.has_edge(0, 3)

    def test_edge_endpoints_consistent(self, triangle):
        src, dst = triangle.edge_endpoints()
        assert src.size == triangle.num_directed_edges
        # Symmetric: every (u, v) has its (v, u).
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_iter_edges(self, weighted_triangle):
        edges = list(iter_edges(weighted_triangle))
        assert len(edges) == 6
        weights = {(u, v): w for u, v, w in edges}
        assert weights[(0, 1)] == weights[(1, 0)] == 1.0
        assert weights[(2, 0)] == 3.0

    def test_neighbor_weights(self, weighted_triangle):
        w = weighted_triangle.neighbor_weights(0)
        assert w is not None and w.size == 2

    def test_neighbor_weights_none_for_unweighted(self, triangle):
        assert triangle.neighbor_weights(0) is None


class TestConversionEquality:
    def test_adjacency_symmetric(self, er_graph):
        a = er_graph.adjacency()
        assert (a != a.T).nnz == 0

    def test_adjacency_entries(self, weighted_triangle):
        a = weighted_triangle.adjacency().toarray()
        assert a[0, 1] == 1.0 and a[1, 2] == 2.0 and a[0, 2] == 3.0
        np.testing.assert_allclose(a, a.T)

    def test_equality(self, triangle):
        other = from_edges([0, 1, 2], [1, 2, 0])
        assert triangle == other

    def test_inequality_weights(self, triangle, weighted_triangle):
        assert triangle != weighted_triangle

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)


def _first_fault_reference(offsets, targets, weights):
    """Entry-by-entry loop over the CSR rules: ``(array, index)`` of the
    first broken one, or ``None``."""
    n = len(offsets) - 1
    if offsets[0] != 0:
        return "offsets", 0
    for i in range(1, n + 1):
        if offsets[i] < offsets[i - 1]:
            return "offsets", i
    if offsets[n] != len(targets):
        return "offsets", n
    row_starts = set(offsets.tolist())
    for i, v in enumerate(targets.tolist()):
        if not 0 <= v < n:
            return "targets", i
        if i not in row_starts and v <= targets[i - 1]:
            return "targets", i
    for i, w in enumerate([] if weights is None else weights.tolist()):
        if not (np.isfinite(w) and w >= 0):
            return "weights", i
    return None


class TestOneCheck:
    """``csr_fault`` finds the same first fault as an entry-by-entry loop,
    at every block size — a row running across a block cut included."""

    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["offsets", "targets", "weights", "swap"]),
                st.integers(0, 10**6),
                st.sampled_from([-1, 0, 3, 10, 11, np.nan, -0.5]),
            ),
            max_size=2,
        ),
        st.sampled_from([1, 2, 3, 7, None]),
    )
    # Row 0 reads [2, 1, 3]: the step down sits on a one-entry block's cut.
    @example(edges=[(0, 1), (0, 2), (0, 3)], weighted=False,
             damage=[("swap", 0, 0)], block=1)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_entry_loop(self, edges, weighted, damage, block):
        from repro.graph import csr

        src = np.array([a for a, _ in edges], dtype=np.int64)
        dst = np.array([b for _, b in edges], dtype=np.int64)
        weights = np.arange(1.0, src.size + 1) if weighted else None
        g = from_edges(src, dst, weights, num_vertices=10)
        arrays = {"offsets": g.offsets.copy(), "targets": g.targets.copy(),
                  "weights": None if g.weights is None else g.weights.copy()}
        for name, at, value in damage:
            if name == "swap":
                if g.num_directed_edges >= 2:
                    at %= g.num_directed_edges - 1
                    t = arrays["targets"]
                    t[at], t[at + 1] = t[at + 1], t[at]
            elif arrays[name] is not None and arrays[name].size:
                if name == "weights" or not np.isnan(value):
                    arrays[name][at % arrays[name].size] = value
        expected = _first_fault_reference(
            arrays["offsets"], arrays["targets"], arrays["weights"]
        )
        saved = csr.CHECK_BLOCK
        csr.CHECK_BLOCK = saved if block is None else block
        try:
            fault = csr.csr_fault(arrays["offsets"], arrays["targets"], arrays["weights"])
        finally:
            csr.CHECK_BLOCK = saved
        if expected is None:
            assert fault is None
            CSRGraph(arrays["offsets"], arrays["targets"], arrays["weights"])
        else:
            name, index = expected
            assert fault is not None and fault[0] == name
            assert fault[1].startswith(f"{name}[{index}] = "), fault
            with pytest.raises(GraphConstructionError, match=re.escape(fault[1])):
                CSRGraph(arrays["offsets"], arrays["targets"], arrays["weights"])

    @pytest.mark.parametrize(
        "offsets, targets, weights, name",
        [
            ([0, 1, 2], [1.7, 0.2], None, "targets"),
            ([0, 1, 2], [1.0, 0.0], None, "targets"),  # whole floats too
            ([0.0, 1.0, 2.0], [1, 0], None, "offsets"),
            ([0, 1, 2], [True, False], None, "targets"),
            ([0, 1, 2], [1, 0], [True, True], "weights"),
            ([0, 1, 2], [1, 0], [1 + 0j, 1 + 0j], "weights"),
            ([0, 1, 2], [1, 0], np.array(["1", "1"]), "weights"),
        ],
    )
    def test_dtype_is_checked_before_any_cast(self, offsets, targets, weights, name):
        """Ids are integers and weights real numbers as given: a float id
        ``x.5`` was cast to ``x`` before the check ever saw it."""
        from repro.graph.csr import csr_fault

        fault = csr_fault(
            np.asarray(offsets), np.asarray(targets),
            None if weights is None else np.asarray(weights),
        )
        assert fault is not None and fault[0] == name
        assert fault[1].startswith(f"{name} has dtype ")
        with pytest.raises(GraphConstructionError, match=f"^{name} has dtype "):
            CSRGraph(offsets, targets, weights)

    def test_every_integer_and_real_dtype_is_accepted(self):
        for index in (np.int32, np.int64, np.uint32, np.uint64):
            for real in (np.float32, np.float64, np.int64, np.uint8):
                g = CSRGraph(np.array([0, 1, 2], dtype=index),
                             np.array([1, 0], dtype=index),
                             np.array([2, 3], dtype=real))
                assert g.offsets.dtype == np.int64
                assert g.targets.tolist() == [1, 0]
                assert g.weights.dtype == np.float64
                assert g.weights.tolist() == [2.0, 3.0]
