"""Tests for synthetic graph generators."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.eval.link_prediction import train_test_split_edges
from repro.graph.generators import (
    dcsbm_graph,
    erdos_renyi_graph,
    rmat_graph,
)


def _digest(graph) -> str:
    blob = graph.offsets.tobytes() + graph.targets.tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def _no_self_loops(graph):
    src, dst = graph.edge_endpoints()
    return not np.any(src == dst)


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi_graph(50, 0.2, seed=0)
        assert g.num_vertices == 50
        assert g.num_edges > 0

    def test_p_zero_empty(self):
        assert erdos_renyi_graph(20, 0.0, seed=0).num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi_graph(10, 1.0, seed=0)
        assert g.num_edges == 45

    def test_deterministic(self):
        assert erdos_renyi_graph(30, 0.3, seed=5) == erdos_renyi_graph(30, 0.3, seed=5)

    def test_no_self_loops(self):
        assert _no_self_loops(erdos_renyi_graph(30, 0.5, seed=1))

    def test_invalid_args(self):
        with pytest.raises(GraphConstructionError):
            erdos_renyi_graph(0, 0.5)
        with pytest.raises(GraphConstructionError):
            erdos_renyi_graph(10, 1.5)


class TestRMAT:
    def test_sizes(self):
        g = rmat_graph(8, 4, seed=0)
        assert g.num_vertices == 256
        assert 0 < g.num_edges <= 256 * 4

    def test_skewed_degrees(self):
        g = rmat_graph(10, 8, seed=1)
        degrees = g.degrees()
        assert degrees.max() > 10 * max(1, int(np.median(degrees)))

    def test_no_self_loops(self):
        assert _no_self_loops(rmat_graph(7, 4, seed=3))

    def test_deterministic(self):
        assert rmat_graph(7, 4, seed=5) == rmat_graph(7, 4, seed=5)

    def test_invalid_scale(self):
        with pytest.raises(GraphConstructionError):
            rmat_graph(0, 4)
        with pytest.raises(GraphConstructionError):
            rmat_graph(30, 4)

    def test_invalid_probabilities(self):
        with pytest.raises(GraphConstructionError):
            rmat_graph(5, 4, a=0.9, b=0.2, c=0.2)


class TestDCSBM:
    def test_shapes(self):
        g, labels = dcsbm_graph(200, 5, avg_degree=10, seed=0)
        assert g.num_vertices == 200
        assert labels.shape == (200, 5)
        assert labels.dtype == bool

    def test_every_node_labeled(self):
        _, labels = dcsbm_graph(100, 4, seed=1)
        assert labels.any(axis=1).all()

    def test_every_community_nonempty(self):
        _, labels = dcsbm_graph(50, 10, seed=2)
        assert labels.any(axis=0).all()

    def test_multi_label(self):
        _, labels = dcsbm_graph(200, 5, labels_per_node=3, seed=3)
        assert labels.sum(axis=1).max() > 1

    def test_single_label(self):
        _, labels = dcsbm_graph(100, 5, labels_per_node=1, seed=4)
        assert (labels.sum(axis=1) == 1).all()

    def test_mean_degree_approx(self):
        g, _ = dcsbm_graph(500, 5, avg_degree=12, seed=5)
        # Dedup removes some edges; allow a generous band.
        assert 6 <= g.degrees().mean() <= 13

    def test_community_structure_present(self):
        g, labels = dcsbm_graph(300, 3, avg_degree=15, mixing=0.05, seed=6)
        comm = labels.argmax(axis=1)
        src, dst = g.edge_endpoints()
        within = (comm[src] == comm[dst]).mean()
        assert within > 0.6  # strongly assortative at low mixing

    def test_mixing_one_destroys_structure(self):
        g, labels = dcsbm_graph(300, 3, avg_degree=15, mixing=1.0, seed=7)
        comm = labels.argmax(axis=1)
        src, dst = g.edge_endpoints()
        within = (comm[src] == comm[dst]).mean()
        assert within < 0.55

    def test_power_law_degrees(self):
        g, _ = dcsbm_graph(1000, 5, avg_degree=10, seed=8)
        degrees = g.degrees()
        assert degrees.max() > 5 * degrees.mean()

    def test_deterministic(self):
        g1, l1 = dcsbm_graph(100, 4, seed=11)
        g2, l2 = dcsbm_graph(100, 4, seed=11)
        assert g1 == g2
        np.testing.assert_array_equal(l1, l2)

    def test_invalid_args(self):
        with pytest.raises(GraphConstructionError):
            dcsbm_graph(10, 20)
        with pytest.raises(GraphConstructionError):
            dcsbm_graph(10, 2, mixing=2.0)
        with pytest.raises(GraphConstructionError):
            dcsbm_graph(10, 2, labels_per_node=0)


class TestPinnedGraphs:
    """The generated graphs, bit for bit: a change to the builder or a
    generator that moves one edge shows here before it shows in any
    embedding digest."""

    def test_dcsbm(self):
        g, _ = dcsbm_graph(
            1500, 10, avg_degree=20.0, mixing=0.2, labels_per_node=2, seed=2021
        )
        assert _digest(g) == "1ae7c5fc9f96a684"

    def test_rmat_and_its_link_prediction_split(self):
        g = rmat_graph(16, 6, seed=2021)
        assert _digest(g) == "516f133fb56aaf90"
        train, _, _ = train_test_split_edges(g, 0.02, 2021)
        assert _digest(train) == "d47ce129bbef9c4a"
