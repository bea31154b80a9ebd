"""Tests for graph builders: symmetrization, dedup, scipy round trips."""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.builders import (
    from_edges,
    from_scipy,
    pair_keys_fit,
    to_scipy,
)
from repro.graph.csr import CSRGraph


def _lexsort_reference(
    src: np.ndarray, dst: np.ndarray, wts: Optional[np.ndarray], n: int
) -> CSRGraph:
    """Sort, deduplicate (summing weights) and pack directed edges into CSR."""
    if src.size == 0:
        offsets = np.zeros(n + 1, dtype=np.int64)
        return CSRGraph(offsets, np.empty(0, dtype=np.int64), None)

    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if wts is not None:
        wts = wts[order]

    # Merge duplicates: group identical (src, dst) pairs.
    new_group = np.empty(src.size, dtype=bool)
    new_group[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    u_src = src[group_starts]
    u_dst = dst[group_starts]
    if wts is not None:
        u_wts = np.add.reduceat(wts, group_starts)
    else:
        u_wts = None

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, u_src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return CSRGraph(offsets, u_dst, u_wts)


def _reference_from_edges(src, dst, wts, n, symmetrize, drop_self_loops):
    """``from_edges`` as it was built on a two-column lexsort."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if drop_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if wts is not None:
            wts = wts[keep]
    if symmetrize and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if wts is not None:
            wts = np.concatenate([wts, wts])
    return _lexsort_reference(src, dst, wts, n)


@st.composite
def _edge_lists(draw):
    """Edges over ``n`` ids drawn from a small pool of pairs, so parallel
    edges (often three or more, in both orientations) and self-loops are
    common; weights span 1e-8..1e8 so that summation order shows."""
    n = draw(st.integers(1, 60))
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=12,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    src = np.array([pool[i][0] for i in picks], dtype=dtype)
    dst = np.array([pool[i][1] for i in picks], dtype=dtype)
    wts = None
    if draw(st.booleans()):
        exponents = draw(
            st.lists(st.integers(-8, 8), min_size=len(picks), max_size=len(picks))
        )
        mantissa = draw(
            st.lists(
                st.floats(1.0, 9.99), min_size=len(picks), max_size=len(picks)
            )
        )
        wts = np.array(mantissa) * 10.0 ** np.array(exponents, dtype=np.float64)
    extra = draw(st.integers(0, 5))
    return src, dst, wts, n + extra


class TestFromEdges:
    def test_symmetrizes(self):
        g = from_edges([0], [1])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 1

    def test_drops_self_loops(self):
        g = from_edges([0, 1], [0, 2])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_keep_self_loops_optional(self):
        g = from_edges([0], [0], drop_self_loops=False, num_vertices=2)
        assert g.has_edge(0, 0)

    def test_merges_duplicates_unweighted(self):
        g = from_edges([0, 0], [1, 1])
        # Duplicates collapse to a single structural edge.
        assert g.num_edges == 1
        assert g.neighbors(0).size == 1

    def test_merges_duplicates_weighted(self):
        g = from_edges([0, 0], [1, 1], [1.0, 2.5])
        assert g.num_edges == 1
        assert g.adjacency()[0, 1] == pytest.approx(3.5)

    def test_num_vertices_override(self):
        g = from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0], [5], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edges([-1], [0])

    def test_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0, 1], [1])

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            from_edges([0], [1], [1.0, 2.0])

    def test_empty_edge_list(self):
        g = from_edges([], [], num_vertices=5)
        assert g.num_vertices == 5 and g.num_edges == 0

    def test_neighbor_lists_sorted(self):
        g = from_edges([0, 0, 0], [3, 1, 2])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2, 3])

    def test_no_symmetrize_directed_input(self):
        # Caller provides both directions explicitly.
        g = from_edges([0, 1], [1, 0], symmetrize=False)
        assert g.num_edges == 1


class TestLexsortOracle:
    @settings(max_examples=300, deadline=None)
    @given(_edge_lists(), st.booleans(), st.booleans())
    def test_equals_two_column_lexsort(self, edges, symmetrize, drop_self_loops):
        src, dst, wts, n = edges
        got = from_edges(
            src,
            dst,
            wts,
            num_vertices=n,
            symmetrize=symmetrize,
            drop_self_loops=drop_self_loops,
        )
        want = _reference_from_edges(src, dst, wts, n, symmetrize, drop_self_loops)
        assert got.offsets.dtype == want.offsets.dtype == np.int64
        assert got.targets.dtype == want.targets.dtype == np.int64
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.targets, want.targets)
        if want.weights is None:
            assert got.weights is None
        else:
            assert got.weights.dtype == want.weights.dtype == np.float64
            assert got.weights.tobytes() == want.weights.tobytes()

    def test_empty_input(self):
        for dtype in (np.int32, np.int64):
            empty = np.empty(0, dtype=dtype)
            got = from_edges(empty, empty, np.empty(0), num_vertices=4)
            want = _lexsort_reference(empty, empty, None, 4)
            np.testing.assert_array_equal(got.offsets, want.offsets)
            assert got.targets.dtype == np.int64 and got.targets.size == 0
            assert got.weights is None


class TestVertexIds:
    def test_fractional_ids_rejected(self):
        with pytest.raises(GraphConstructionError, match="integers"):
            from_edges([1.9, 0.0], [0.2, 2.7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ids_rejected_without_a_cast_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphConstructionError, match="integers"):
                from_edges([0.0, bad], [1.0, 2.0])

    def test_integer_valued_floats_accepted(self):
        assert from_edges([0.0, 1.0], [1.0, 2.0]) == from_edges([0, 1], [1, 2])

    def test_key_overflow_rejected(self):
        # 3_037_000_500² − 1 overflows int64; refused before the n-sized
        # offsets array is allocated.
        assert pair_keys_fit(3_037_000_499)
        assert not pair_keys_fit(3_037_000_500)
        with pytest.raises(GraphConstructionError, match="overflow"):
            from_edges([0], [1], num_vertices=3_037_000_500)


class TestScipyRoundTrip:
    def test_round_trip(self, er_graph):
        again = from_scipy(to_scipy(er_graph), symmetrize=False)
        assert again == er_graph

    def test_from_scipy_symmetrize(self):
        a = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        g = from_scipy(a, symmetrize=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_from_scipy_asymmetric_rejected(self):
        a = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        with pytest.raises(GraphConstructionError):
            from_scipy(a, symmetrize=False)

    def test_from_scipy_rectangular_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_scipy(sp.csr_matrix((2, 3)))

    def test_diagonal_removed(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        g = from_scipy(a, symmetrize=False)
        assert not g.has_edge(0, 0)
