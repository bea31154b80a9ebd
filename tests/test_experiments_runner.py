"""Tests for the programmatic experiment runners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import LabeledGraph
from repro.errors import EvaluationError, UnknownMethodError
from repro.experiments import (
    format_table,
    run_link_prediction_comparison,
    run_method_comparison,
    run_multiplier_sweep,
    run_stage_breakdown,
)
from repro.experiments.runner import dispatch_method
from repro.graph.generators import dcsbm_graph


@pytest.fixture(scope="module")
def bundle():
    graph, labels = dcsbm_graph(150, 3, avg_degree=10, mixing=0.15, seed=2)
    return LabeledGraph(name="tiny", graph=graph, labels=labels)


@pytest.fixture(scope="module")
def unlabeled(bundle):
    return LabeledGraph(name="tiny-lp", graph=bundle.graph, labels=None)


class TestDispatch:
    @pytest.mark.parametrize(
        "method", ["lightne", "netsmf", "prone+", "netmf", "nrp"]
    )
    def test_matrix_methods(self, bundle, method):
        result = dispatch_method(
            method, bundle.graph, dimension=8, window=2, multiplier=1.0, seed=0
        )
        assert result.vectors.shape == (150, 8)

    def test_unknown_method(self, bundle):
        with pytest.raises(UnknownMethodError):
            dispatch_method("wat", bundle.graph)

    def test_workers_threaded_through(self, bundle):
        # workers is a performance knob: vectors must match the default run.
        base = dispatch_method(
            "lightne", bundle.graph, dimension=8, window=2, seed=0
        )
        threaded = dispatch_method(
            "lightne", bundle.graph, dimension=8, window=2, seed=0, workers=2
        )
        assert threaded.timer.get_counter("sparsifier", "workers") == 2
        np.testing.assert_array_equal(base.vectors, threaded.vectors)


class TestRunners:
    def test_method_comparison_rows(self, bundle):
        rows = run_method_comparison(
            bundle, ["prone+", "lightne"], ratios=(0.3,), dimension=8,
            window=2, multiplier=1.0, repeats=1, seed=0,
        )
        assert [r["method"] for r in rows] == ["prone+", "lightne"]
        for row in rows:
            assert 0 <= row["micro@0.3"] <= 100
            assert row["time_s"] > 0 and row["cost_$"] > 0

    def test_method_comparison_needs_labels(self, unlabeled):
        with pytest.raises(EvaluationError):
            run_method_comparison(unlabeled, ["lightne"])

    def test_method_comparison_by_name(self):
        rows = run_method_comparison(
            "blogcatalog_like", ["prone+"], ratios=(0.3,), dimension=8,
            window=2, repeats=1, seed=0,
        )
        assert rows[0]["method"] == "prone+"

    def test_link_prediction_rows(self, unlabeled):
        rows = run_link_prediction_comparison(
            unlabeled, ["lightne"], dimension=8, window=2,
            test_fraction=0.05, num_negatives=20, seed=0,
        )
        row = rows[0]
        assert {"MR", "MRR", "HITS@10"} <= set(row)
        assert 1.0 <= row["MR"] <= 21.0

    def test_multiplier_sweep(self, bundle):
        rows = run_multiplier_sweep(
            bundle, (0.5, 4.0), ratio=0.3, dimension=8, window=2,
            repeats=1, seed=0,
        )
        assert rows[0]["M"] == "0.5Tm"
        assert rows[1]["nnz"] > rows[0]["nnz"]

    def test_stage_breakdown(self, bundle):
        rows = run_stage_breakdown(
            bundle,
            [("Light", "lightne", 1.0), ("ProNE+", "prone+", None)],
            dimension=8, window=2, seed=0,
        )
        assert rows[0]["sparsifier_s"] is not None
        assert rows[1]["sparsifier_s"] is None


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_na(self):
        text = format_table(
            [{"a": 1, "b": None}, {"a": 22, "b": 3.14159}]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "NA" in lines[2]
        assert "3.142" in lines[3]

    def test_column_order_from_first_row(self):
        text = format_table([{"z": 1, "a": 2}])
        header = text.splitlines()[0]
        assert header.index("z") < header.index("a")

    def test_columns_are_the_union_of_keys(self):
        # A column only later rows carry used to be dropped (columns came
        # from row 0 alone); it now prints, NA where a row lacks it.
        text = format_table([{"a": 1.0}, {"a": 2.0, "b": 3.0}])
        header, _, first, second = text.splitlines()
        assert header.split() == ["a", "b"]
        assert first.split() == ["1", "NA"]
        assert second.split() == ["2", "3"]

    @pytest.mark.parametrize(
        "value,cell",
        [
            (np.float32(1.23456789), "1.235"),
            (np.float64(1.23456789), "1.235"),
            (1.23456789, "1.235"),
            (123456789, "123456789"),
            (np.int64(123456789), "123456789"),
            (True, "True"),
            (np.bool_(False), "False"),
            (None, "NA"),
        ],
    )
    def test_cell_formatting(self, value, cell):
        assert format_table([{"v": value}]).splitlines()[2].strip() == cell
