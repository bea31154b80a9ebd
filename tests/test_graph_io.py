"""Tests for edge-list and binary CSR IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError, GraphFormatError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    CSR_V2_SUFFIX,
    is_csr_v2,
    load_csr,
    load_csr_v2,
    read_edge_list,
    save_csr,
    save_csr_v2,
    write_edge_list,
)


def _disk_backed(array) -> bool:
    """True when the array's buffer chain bottoms out in a memmap."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


class TestEdgeList:
    def test_round_trip(self, tmp_path, er_graph):
        path = tmp_path / "g.edges"
        write_edge_list(er_graph, path)
        again = read_edge_list(path)
        assert again == er_graph

    def test_round_trip_weighted(self, tmp_path, weighted_triangle):
        path = tmp_path / "w.edges"
        write_edge_list(weighted_triangle, path)
        again = read_edge_list(path)
        assert again == weighted_triangle

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# comment\n\n% another\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_bad_token_count(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_integer_vertex(self, tmp_path):
        path = tmp_path / "bad2.edges"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_bad_weight(self, tmp_path):
        path = tmp_path / "bad3.edges"
        path.write_text("0 1 zzz\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "nonfinite.edges"
        path.write_text(f"0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError, match=r":2: non-finite"):
            read_edge_list(path)

    def test_mixed_weighted_rejected(self, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("0 1\n1 2 3.0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "n.edges"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=10)
        assert g.num_vertices == 10

    @pytest.mark.parametrize("weights", [None, [2.5]])
    def test_round_trip_keeps_trailing_isolated_vertices(self, tmp_path, weights):
        graph = from_edges([0], [1], weights, num_vertices=3)
        path = tmp_path / "iso.edges"
        write_edge_list(graph, path)
        assert path.read_text().splitlines()[0] == "# num_vertices: 3"
        again = read_edge_list(path)
        assert again.num_vertices == 3
        assert again == graph
        # An explicit count still wins over the file's.
        assert read_edge_list(path, num_vertices=5).num_vertices == 5

    def test_declared_count_is_checked(self, tmp_path):
        path = tmp_path / "short.edges"
        path.write_text("# num_vertices: 2\n0 2\n")
        with pytest.raises(GraphConstructionError):
            read_edge_list(path)
        path.write_text("# num_vertices: many\n0 1\n")
        with pytest.raises(GraphFormatError, match=":1: bad vertex count"):
            read_edge_list(path)
        # Anywhere but the first line it is an ordinary comment.
        path.write_text("0 1\n# num_vertices: 9\n")
        assert read_edge_list(path).num_vertices == 2

    def test_line_number_in_error(self, tmp_path):
        path = tmp_path / "lineno.edges"
        path.write_text("0 1\nbroken\n")
        with pytest.raises(GraphFormatError, match=":2"):
            read_edge_list(path)


class TestBinaryCSR:
    def test_round_trip(self, tmp_path, er_graph):
        path = tmp_path / "g.csr.npz"
        save_csr(er_graph, path)
        assert load_csr(path) == er_graph

    def test_round_trip_weighted(self, tmp_path, weighted_triangle):
        path = tmp_path / "w.csr.npz"
        save_csr(weighted_triangle, path)
        assert load_csr(path) == weighted_triangle

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises((GraphFormatError, KeyError)):
            load_csr(path)

    def test_isolated_vertices_preserved(self, tmp_path):
        g = from_edges([0], [1], num_vertices=7)
        path = tmp_path / "iso.csr.npz"
        save_csr(g, path)
        assert load_csr(path).num_vertices == 7

    def test_unsorted_row_rejected(self, tmp_path):
        """A v1 archive is validated on load: an unsorted row would let
        ``sample_non_edges`` draw true edges as negatives."""
        unsorted = CSRGraph(
            np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]), check=False
        )
        path = tmp_path / "unsorted.csr.npz"
        save_csr(unsorted, path)
        with pytest.raises(GraphConstructionError, match="not sorted"):
            load_csr(path)


class TestCSRv2:
    """The memmappable on-disk container behind ``--backend process``."""

    def _save(self, tmp_path, graph):
        return save_csr_v2(graph, tmp_path / ("g" + CSR_V2_SUFFIX))

    def test_round_trip(self, tmp_path, er_graph):
        path = self._save(tmp_path, er_graph)
        assert load_csr_v2(path) == er_graph

    def test_round_trip_weighted(self, tmp_path, weighted_triangle):
        path = self._save(tmp_path, weighted_triangle)
        again = load_csr_v2(path)
        assert again == weighted_triangle
        assert again.weights is not None

    def test_round_trip_empty_graph(self, tmp_path):
        g = from_edges([], [], num_vertices=5)
        path = self._save(tmp_path, g)
        again = load_csr_v2(path)
        assert again.num_vertices == 5 and again.num_edges == 0

    def test_int32_targets_preserved(self, tmp_path):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int32),
        )
        path = self._save(tmp_path, g)
        assert load_csr_v2(path).targets.dtype == np.int32

    def test_mmap_arrays_disk_backed(self, tmp_path, er_graph):
        path = self._save(tmp_path, er_graph)
        g = load_csr_v2(path, mmap=True)
        assert _disk_backed(g.offsets) and _disk_backed(g.targets)

    def test_materialized_load(self, tmp_path, er_graph):
        path = self._save(tmp_path, er_graph)
        g = load_csr_v2(path, mmap=False)
        assert not _disk_backed(g.offsets)

    def test_load_csr_dispatches_to_v2(self, tmp_path, er_graph):
        path = self._save(tmp_path, er_graph)
        assert load_csr(path) == er_graph

    def test_is_csr_v2(self, tmp_path, er_graph):
        path = self._save(tmp_path, er_graph)
        assert is_csr_v2(path)
        assert not is_csr_v2(tmp_path / "nope")

    def test_v1_mmap_request_rejected(self, tmp_path, er_graph):
        path = tmp_path / "g.csr.npz"
        save_csr(er_graph, path)
        with pytest.raises(GraphFormatError, match="v2"):
            load_csr(path, mmap=True)

    def test_truncated_array_rejected(self, tmp_path, er_graph):
        import os

        path = self._save(tmp_path, er_graph)
        target_file = os.path.join(path, "targets.npy")
        with open(target_file, "r+b") as handle:
            handle.truncate(os.path.getsize(target_file) - 8)
        with pytest.raises(GraphFormatError):
            load_csr_v2(path)

    def test_bad_magic_rejected(self, tmp_path, er_graph):
        import json
        import os

        path = self._save(tmp_path, er_graph)
        header_file = os.path.join(path, "header.json")
        with open(header_file) as handle:
            header = json.load(handle)
        header["magic"] = "not-a-csr"
        with open(header_file, "w") as handle:
            json.dump(header, handle)
        with pytest.raises(GraphFormatError, match="magic"):
            load_csr_v2(path)

    def test_missing_array_rejected(self, tmp_path, er_graph):
        import os

        path = self._save(tmp_path, er_graph)
        os.remove(os.path.join(path, "offsets.npy"))
        with pytest.raises(GraphFormatError):
            load_csr_v2(path)

    def test_mmap_graph_usable(self, tmp_path, er_graph):
        # Algorithms must run unchanged on a memmapped graph.
        path = self._save(tmp_path, er_graph)
        g = load_csr_v2(path)
        assert g.degree(0) == er_graph.degree(0)
        np.testing.assert_array_equal(
            g.neighbors(3), er_graph.neighbors(3)
        )


class TestMetis:
    def _write(self, tmp_path, text):
        path = tmp_path / "g.metis"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path, er_graph):
        from repro.graph.io import read_metis
        from tests.conftest import write_metis

        path = tmp_path / "g.metis"
        write_metis(er_graph, path)
        assert read_metis(path) == er_graph

    def test_parse_simple(self, tmp_path):
        from repro.graph.io import read_metis

        # Triangle in METIS: 3 vertices, 3 edges, 1-indexed neighbors.
        path = self._write(tmp_path, "3 3\n2 3\n1 3\n1 2\n")
        g = read_metis(path)
        assert g.num_vertices == 3 and g.num_edges == 3

    def test_comments_skipped(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "% hello\n2 1\n2\n1\n")
        assert read_metis(path).num_edges == 1

    def test_missing_header(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_vertex_count_mismatch(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "3 1\n2\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_out_of_range_neighbor(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "2 1\n5\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_weighted_fmt_rejected(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "2 1 001\n2 7\n1 7\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_isolated_vertex_blank_line(self, tmp_path):
        from repro.graph.io import read_metis

        path = self._write(tmp_path, "3 1\n2\n1\n\n")
        # The blank third line is a valid isolated vertex.
        g = read_metis(path)
        assert g.num_vertices == 3
        assert g.degree(2) == 0


class TestAdjacencyList:
    def test_parse(self, tmp_path):
        from repro.graph.io import read_adjacency_list

        path = tmp_path / "g.adj"
        path.write_text("# comment\n0 1 2\n1 2\n")
        g = read_adjacency_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_merging_duplicate_mentions(self, tmp_path):
        from repro.graph.io import read_adjacency_list

        path = tmp_path / "g.adj"
        path.write_text("0 1\n1 0\n")
        assert read_adjacency_list(path).num_edges == 1

    def test_bad_token(self, tmp_path):
        from repro.graph.io import read_adjacency_list

        path = tmp_path / "g.adj"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError):
            read_adjacency_list(path)
