"""Reader contract: every reader returns the graph it was given or a typed
error — never a crash, never a different graph.

Each case damages a file the library wrote:

* a byte replaced or the file cut short anywhere in a CSR v2 container
  (header or array), loaded memmapped and in RAM: the two loads agree, and
  each is the written graph or a :class:`GraphFormatError`;
* the same for a v1 ``.npz`` archive;
* a container or archive *written* with a broken CSR rule — an unsorted
  row, an id outside ``[0, n)``, a decreasing offset, a NaN or negative
  weight — is a ``GraphFormatError`` naming the array file and the first
  bad index, memmapped and in RAM: the one CSR check is what stands between
  such a file and the kernels;
* a container or archive whose ids or offsets are not of an integer dtype,
  or whose weights are not real numbers — header, ``.npy`` and checksum all
  agreeing — is a ``GraphFormatError`` naming the array file, memmapped and
  in RAM (a float id ``x.5`` once loaded as ``x``);
* an edge list the library wrote, cut short at any byte after its
  ``# num_edges:`` line, is a ``GraphFormatError`` naming the file;
* a byte that is not UTF-8 in an edge list, a METIS file or an adjacency
  list is a ``GraphFormatError`` naming its line.
"""

from __future__ import annotations

import functools
import json
import os
import re
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import (
    load_csr,
    load_csr_v2,
    read_adjacency_list,
    read_edge_list,
    read_metis,
    save_csr,
    save_csr_v2,
    write_edge_list,
)
from tests.conftest import write_metis


@functools.lru_cache(maxsize=None)
def _graph(weighted: bool) -> CSRGraph:
    """ER(40): unweighted with int64 ids, or weighted with int32 ids."""
    graph = erdos_renyi_graph(40, 0.15, seed=1)
    if not weighted:
        return graph
    weights = np.random.default_rng(2).uniform(0.5, 4.0, graph.num_directed_edges)
    return CSRGraph(graph.offsets, graph.targets.astype(np.int32), weights)


def _written(save, graph, name):
    """``{relative path: bytes}`` of what ``save(graph, path)`` writes."""
    with tempfile.TemporaryDirectory() as scratch:
        root = os.path.join(scratch, name)
        save(graph, root)
        if not os.path.isdir(root):
            with open(root, "rb") as handle:
                return {"": handle.read()}
        files = {}
        for entry in sorted(os.listdir(root)):
            with open(os.path.join(root, entry), "rb") as handle:
                files[entry] = handle.read()
        return files


@functools.lru_cache(maxsize=None)
def _v2_files(weighted: bool):
    return _written(save_csr_v2, _graph(weighted), "g.csrv2")


@functools.lru_cache(maxsize=None)
def _v1_files(weighted: bool):
    return _written(save_csr, _graph(weighted), "g.csr.npz")


def _lay_out(root, files):
    """Write ``files`` (as :func:`_written` returns them) at ``root``."""
    if "" in files:
        with open(root, "wb") as handle:
            handle.write(files[""])
        return
    os.makedirs(root)
    for entry, content in files.items():
        with open(os.path.join(root, entry), "wb") as handle:
            handle.write(content)


def _damaged(draw, files):
    """``files`` with one file's byte replaced or the file cut short."""
    entry = draw(st.sampled_from(sorted(files)))
    content = files[entry]
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(content) - 1))
        return {**files, entry: content[:cut]}
    at = draw(st.integers(0, len(content) - 1))
    byte = draw(st.integers(0, 255).filter(lambda b: b != content[at]))
    return {**files, entry: content[:at] + bytes([byte]) + content[at + 1 :]}


def _outcome(load, path):
    """The loaded graph, or the ``GraphFormatError`` it raised."""
    try:
        return load(path)
    except GraphFormatError as exc:
        return exc


def _is_the_written(graph, original) -> bool:
    return (
        np.array_equal(graph.offsets, original.offsets)
        and np.array_equal(graph.targets, original.targets)
        and (graph.weights is None) == (original.weights is None)
        and (graph.weights is None or np.array_equal(graph.weights, original.weights))
    )


def _written_or_refused(outcome, original) -> None:
    assert isinstance(outcome, (GraphFormatError, CSRGraph)), outcome
    if isinstance(outcome, CSRGraph):
        assert _is_the_written(outcome, original)


class TestDamagedFiles:
    @settings(max_examples=300, deadline=None)
    @given(weighted=st.booleans(), data=st.data())
    def test_csr_v2_memmapped_and_in_ram(self, weighted, data):
        files = _damaged(data.draw, _v2_files(weighted))
        with tempfile.TemporaryDirectory() as scratch:
            root = os.path.join(scratch, "g.csrv2")
            _lay_out(root, files)
            mapped = _outcome(lambda p: load_csr_v2(p, mmap=True), root)
            in_ram = _outcome(lambda p: load_csr_v2(p, mmap=False), root)
            _written_or_refused(mapped, _graph(weighted))
            _written_or_refused(in_ram, _graph(weighted))
            assert type(mapped) is type(in_ram), (mapped, in_ram)

    @settings(max_examples=150, deadline=None)
    @given(weighted=st.booleans(), data=st.data())
    def test_csr_v1_archive(self, weighted, data):
        files = _damaged(data.draw, _v1_files(weighted))
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "g.csr.npz")
            _lay_out(path, files)
            _written_or_refused(_outcome(load_csr, path), _graph(weighted))


# (rule, array it breaks, whether the graph must be weighted)
RULES = (
    ("unsorted row", "targets", False),
    ("id n", "targets", False),
    ("id -1", "targets", False),
    ("offset decreases", "offsets", False),
    ("nan weight", "weights", True),
    ("negative weight", "weights", True),
)


@st.composite
def _broken(draw):
    """A graph's arrays with one rule broken, and the index that breaks it."""
    rule, name, needs_weights = draw(st.sampled_from(RULES))
    graph = _graph(needs_weights or draw(st.booleans()))
    arrays = {"offsets": graph.offsets.copy(), "targets": graph.targets.copy()}
    arrays["weights"] = None if graph.weights is None else graph.weights.copy()
    n = graph.num_vertices
    if rule == "unsorted row":
        # Swap two neighbours: the row steps down at the second slot.
        degrees = np.diff(graph.offsets)
        u = draw(st.sampled_from(np.flatnonzero(degrees >= 2).tolist()))
        at = draw(st.integers(graph.offsets[u] + 1, graph.offsets[u + 1] - 1))
        targets = arrays["targets"]
        targets[at - 1], targets[at] = targets[at], targets[at - 1]
    elif rule == "offset decreases":
        at = draw(st.integers(1, n - 1))
        arrays["offsets"][at] = arrays["offsets"][at - 1] - 1
    else:
        at = draw(st.integers(0, graph.num_directed_edges - 1))
        value = {"id n": n, "id -1": -1, "nan weight": np.nan,
                 "negative weight": -0.5}[rule]
        arrays[name][at] = value
    broken = CSRGraph(arrays["offsets"], arrays["targets"], arrays["weights"],
                      check=False)
    return broken, name, at


class TestBrokenRules:
    @settings(max_examples=80, deadline=None)
    @given(case=_broken())
    def test_is_refused_naming_the_file_and_index(self, case):
        broken, name, at = case
        with tempfile.TemporaryDirectory() as scratch:
            root = save_csr_v2(broken, os.path.join(scratch, "g.csrv2"))
            where = re.escape(f"{name}.npy: {name}[{at}]")
            for mmap in (True, False):
                outcome = _outcome(lambda p: load_csr_v2(p, mmap=mmap), root)
                assert isinstance(outcome, GraphFormatError), (mmap, outcome)
                assert re.search(where, str(outcome)), (mmap, outcome)
            archive = os.path.join(scratch, "g.csr.npz")
            save_csr(broken, archive)
            outcome = _outcome(load_csr, archive)
            assert isinstance(outcome, GraphFormatError), outcome
            assert f"{archive}: {name}[{at}]" in str(outcome)


@pytest.mark.parametrize("mmap", [True, False])
def test_a_swapped_row_is_refused_in_either_mode(tmp_path, mmap):
    """Row 0's first two targets swapped in a saved container: memmapped,
    this once loaded as a graph whose ``has_edge(0, v)`` missed a real
    neighbour ``v``; in RAM it was a ``GraphConstructionError``."""
    graph = erdos_renyi_graph(300, 0.05, seed=0)
    root = save_csr_v2(graph, tmp_path / "g.csrv2")
    targets = np.load(os.path.join(root, "targets.npy"), mmap_mode="r+")
    targets[[0, 1]] = targets[[1, 0]]
    targets.flush()
    del targets
    with pytest.raises(
        GraphFormatError,
        match=r"targets\.npy: targets\[1\] = \d+ is not above targets\[0\]",
    ):
        load_csr_v2(root, mmap=mmap)


# (array, the dtype a foreign writer gave it, how its values are rewritten)
FOREIGN_DTYPES = (
    ("targets", "<f8", lambda a: a + 0.5),  # id x.5 once loaded as x
    ("targets", "<f8", lambda a: a.astype(np.float64)),
    ("offsets", "<f8", lambda a: a.astype(np.float64)),
    ("weights", "<c16", lambda a: a.astype(np.complex128)),
)


@pytest.mark.parametrize("mmap", [True, False])
@pytest.mark.parametrize("name, dtype, rewrite", FOREIGN_DTYPES)
def test_a_container_of_the_wrong_dtype_is_refused(
    tmp_path, name, dtype, rewrite, mmap
):
    """Header and ``.npy`` agree on a dtype the CSR rules do not allow
    (non-integer ids or offsets, non-real weights), checksum and all: the
    arrays are checked as stored, before any cast, in either mode; a v1
    archive holding the same array is refused too."""
    graph = _graph(True)
    root = save_csr_v2(graph, tmp_path / "g.csrv2")
    array = rewrite(np.load(os.path.join(root, f"{name}.npy")))
    assert array.dtype.str == dtype
    np.save(os.path.join(root, f"{name}.npy"), array)
    header_path = os.path.join(root, "header.json")
    with open(header_path, encoding="utf-8") as handle:
        header = json.load(handle)
    header["dtypes"][name] = dtype
    header["crc32"][name] = zlib.crc32(array)
    with open(header_path, "w", encoding="utf-8") as handle:
        json.dump(header, handle)
    with pytest.raises(GraphFormatError, match=re.escape(f"{name}.npy: {name} has dtype ")):
        load_csr_v2(root, mmap=mmap)
    archive = str(tmp_path / "g.csr.npz")
    arrays = {"magic": np.array("repro-csr-v1"), "offsets": graph.offsets,
              "targets": graph.targets, "weights": graph.weights}
    np.savez_compressed(archive, **{**arrays, name: array})
    with pytest.raises(GraphFormatError, match=re.escape(f"{archive}: {name} has dtype ")):
        load_csr(archive)


def _write_adjacency_list(graph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for u in range(graph.num_vertices):
            ids = " ".join(str(int(v)) for v in graph.neighbors(u))
            handle.write(f"{u} {ids}\n")


TEXT_FORMATS = {
    "edge list": (write_edge_list, read_edge_list),
    "metis": (write_metis, read_metis),
    "adjacency list": (_write_adjacency_list, read_adjacency_list),
}


@functools.lru_cache(maxsize=None)
def _text(fmt: str) -> bytes:
    return _written(TEXT_FORMATS[fmt][0], _graph(False), "g.txt")[""]


@pytest.mark.parametrize("weighted", [False, True])
def test_every_truncation_of_a_written_edge_list_is_refused(tmp_path, weighted):
    """Cut a written edge list at every byte: once its ``# num_edges: M``
    line is whole, each cut short of the end is a ``GraphFormatError``
    naming the file (too few edge lines, or a last line without its
    newline), and the whole file is the written graph.  A cut before that
    line is whole leaves header comments and no edge line: the file no
    longer says what it held, and reads as an edgeless graph."""
    content = _written(write_edge_list, _graph(weighted), "g.edges")[""]
    path = str(tmp_path / "g.edges")
    with open(path, "wb") as handle:
        handle.write(content)
    # The written graph (its weights are the upper triangle's, as %.10g).
    whole, original = read_edge_list(path), _graph(weighted)
    assert np.array_equal(whole.offsets, original.offsets)
    assert np.array_equal(whole.targets, original.targets)
    assert (whole.weights is None) == (not weighted)
    header = content.index(b"# num_edges:") + len(b"# num_edges:")
    for cut in range(len(content)):
        with open(path, "wb") as handle:
            handle.write(content[:cut])
        outcome = _outcome(read_edge_list, path)
        if cut < header:
            assert isinstance(outcome, GraphFormatError) or (
                outcome.num_edges == 0
            ), (cut, outcome)
        else:
            assert isinstance(outcome, GraphFormatError), (cut, outcome)
            assert str(outcome).startswith(f"{path}:"), (cut, outcome)


class TestTextReaders:
    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from(sorted(TEXT_FORMATS)), data=st.data())
    def test_a_byte_that_is_not_utf8_names_its_line(self, fmt, data):
        content = _text(fmt)
        at = data.draw(st.integers(0, len(content) - 1))
        # Among ASCII, any byte >= 0x80 is a lone continuation byte or a lead
        # byte without its continuation: never valid UTF-8.
        byte = data.draw(st.integers(0x80, 0xFF))
        damaged = content[:at] + bytes([byte]) + content[at + 1 :]
        line = content[:at].count(b"\n") + 1
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "g.txt")
            with open(path, "wb") as handle:
                handle.write(damaged)
            outcome = _outcome(TEXT_FORMATS[fmt][1], path)
        assert isinstance(outcome, GraphFormatError), outcome
        assert str(outcome).startswith(f"{path}:{line}: not UTF-8"), outcome
