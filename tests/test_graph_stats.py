"""Tests for graph statistics (summary rows, Laplacian, spectral gap)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builders import from_edges
from repro.graph.stats import summarize
from tests.contracts.spectral_analysis import spectral_gap


class TestSummarize:
    def test_triangle(self, triangle):
        s = summarize(triangle)
        assert s.num_vertices == 3
        assert s.num_edges == 3
        assert s.volume == 6.0
        assert s.max_degree == 2
        assert s.mean_degree == pytest.approx(2.0)
        assert s.density == pytest.approx(1.0)

    def test_as_dict_keys(self, triangle):
        d = summarize(triangle).as_dict()
        assert "|V|" in d and "|E|" in d


class TestSpectralGap:
    def test_complete_graph_large_gap(self):
        # K_n has lambda_2 = -1/(n-1) -> gap > 1.
        g = from_edges([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
        assert spectral_gap(g) > 0.9

    def test_path_graph_small_gap(self):
        n = 30
        g = from_edges(np.arange(n - 1), np.arange(1, n))
        assert spectral_gap(g) < 0.1

    def test_gap_in_unit_interval(self, er_graph):
        gap = spectral_gap(er_graph)
        assert 0.0 <= gap <= 2.0

    def test_tiny_graph(self):
        g = from_edges([0], [1])
        assert spectral_gap(g) == 1.0
