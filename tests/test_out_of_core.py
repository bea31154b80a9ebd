"""Out-of-core input: where the graph lives changes no bit.

The contract under test is the one stated in docs/performance.md: an
in-memory graph and a memmapped CSR v2 container give the same output bits
at every worker count.  ``backend`` is validated and recorded and selects
nothing: every stage runs on the thread pool and every dense buffer is an
in-RAM array whatever it says.
"""

from __future__ import annotations

import concurrent.futures
import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp

from repro.embedding import lightne as lightne_mod
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.errors import BackendError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import load_csr_v2, save_csr_v2
from repro.linalg import kernels
from repro.linalg.kernels import spmm
from repro.linalg.spectral import spectral_propagation
from repro.sparsifier.builder import build_sparsifier
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.utils.parallel import chunk_ranges


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(120, 0.08, seed=11)


@pytest.fixture(scope="module")
def mmap_graph(graph, tmp_path_factory):
    path = save_csr_v2(graph, tmp_path_factory.mktemp("ooc") / "g.csrv2")
    g = load_csr_v2(path)
    assert isinstance(g.targets.base, np.memmap)
    return g


def _counts(graph, config, *, backend, workers, aggregator):
    result = build_sparsifier(
        graph,
        config,
        np.random.default_rng(5),
        aggregator=aggregator,
        workers=workers,
        backend=backend,
    )
    counts = result.counts.tocsr()
    return counts.indptr, counts.indices, counts.data, result.num_draws


class TestSparsifierParity:
    @pytest.mark.parametrize("aggregator", ["hash", "hash-sharded"])
    def test_backend_and_storage_irrelevant(self, graph, mmap_graph, aggregator):
        config = PathSamplingConfig(window=4, num_samples=3000)
        reference = _counts(
            graph, config, backend="thread", workers=1, aggregator=aggregator
        )
        for g in (graph, mmap_graph):
            for backend in ("thread", "process"):
                for workers in (1, 2, 3):
                    got = _counts(
                        g, config, backend=backend, workers=workers,
                        aggregator=aggregator,
                    )
                    for a, b in zip(got[:3], reference[:3]):
                        np.testing.assert_array_equal(a, b)
                    assert got[3] == reference[3]

    def test_backend_recorded_in_stats(self, graph):
        config = PathSamplingConfig(window=3, num_samples=500)
        result = build_sparsifier(
            graph, config, np.random.default_rng(0), backend="process", workers=2
        )
        assert result.stats["backend"] == "process"


class TestChunkedSPMM:
    """``spmm`` gives the serial product's bits at any row cut: its cut is
    one block per worker at equal nnz shares, replaced here by blocks of a
    fixed row count so that many blocks run."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(400, 300, density=0.03, random_state=7, format="csr")
        dense = rng.standard_normal((300, 17))
        return matrix, dense

    @staticmethod
    def _block_rows(monkeypatch, rows):
        def cut(indptr, parts):
            return chunk_ranges(indptr.size - 1, -(-(indptr.size - 1) // rows))

        monkeypatch.setattr(kernels, "balanced_row_ranges", cut)

    @pytest.mark.parametrize("block_rows", [None, 1, 7, 100, 10_000])
    def test_matches_spmm(self, operands, block_rows, monkeypatch):
        matrix, dense = operands
        reference = matrix @ dense
        if block_rows is not None:
            self._block_rows(monkeypatch, block_rows)
        np.testing.assert_array_equal(spmm(matrix, dense, workers=2), reference)

    def test_memmapped_out(self, operands, tmp_path, monkeypatch):
        matrix, dense = operands
        out = np.lib.format.open_memmap(
            tmp_path / "out.npy", mode="w+", dtype=np.float64,
            shape=(matrix.shape[0], dense.shape[1]),
        )
        self._block_rows(monkeypatch, 64)
        got = spmm(matrix, dense, out=out)
        assert got is out
        np.testing.assert_array_equal(np.asarray(out), matrix @ dense)

    def test_vector_rhs(self, operands, monkeypatch):
        matrix, _ = operands
        vector = np.random.default_rng(1).standard_normal(matrix.shape[1])
        self._block_rows(monkeypatch, 33)
        np.testing.assert_array_equal(spmm(matrix, vector), matrix @ vector)


class TestPropagationOffload:
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_offload_bit_identical(self, graph, tmp_path, precision):
        """``offload_dir`` is accepted and ignored: the same bits, a plain
        in-RAM array, nothing written under the directory."""
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((graph.num_vertices, 8))
        reference = spectral_propagation(
            graph, vectors, order=6, precision=precision
        )
        offloaded = spectral_propagation(
            graph, vectors, order=6, precision=precision,
            offload_dir=str(tmp_path),
        )
        np.testing.assert_array_equal(offloaded, reference)
        # No memmap may escape: downstream code mutates embeddings in place.
        assert type(offloaded) is np.ndarray
        assert not isinstance(offloaded.base, np.memmap)
        assert os.listdir(tmp_path) == []


class TestEndToEndParity:
    def test_process_on_mmap_matches_thread_in_memory(self, graph, mmap_graph):
        params = dict(dimension=12, window=3, sample_multiplier=1.0)
        reference = lightne_embedding(
            graph, LightNEParams(workers=2, backend="thread", **params), seed=9
        )
        for workers in (1, 3):
            got = lightne_embedding(
                mmap_graph,
                LightNEParams(workers=workers, backend="process", **params),
                seed=9,
            )
            np.testing.assert_array_equal(got.vectors, reference.vectors)
            assert got.info["params"]["backend"] == "process"

    def test_process_backend_starts_no_process(self, graph, mmap_graph, monkeypatch):
        """``backend="process"`` selects nothing: the filter gets no spill
        directory and nothing forks, however many slabs there are."""
        params = dict(dimension=12, window=3, sample_multiplier=1.0, batch_size=200)
        reference = lightne_embedding(
            graph, LightNEParams(workers=2, backend="thread", **params), seed=9
        )

        def no_processes(*args, **kwargs):
            raise AssertionError("a process was started")

        offload_dirs = []

        def recording_propagation(*args, **kwargs):
            offload_dirs.append(kwargs.get("offload_dir"))
            return spectral_propagation(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
        monkeypatch.setattr(os, "fork", no_processes)
        monkeypatch.setattr(lightne_mod, "spectral_propagation", recording_propagation)
        got = lightne_embedding(
            mmap_graph, LightNEParams(workers=2, backend="process", **params), seed=9
        )
        assert got.timer.get_counter("sparsifier", "batches") > 1
        np.testing.assert_array_equal(got.vectors, reference.vectors)
        assert offload_dirs == [None]

    def test_ledger_records_backend(self, graph, tmp_path):
        from repro.telemetry import ledger

        result = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=3, backend="process", workers=2),
            seed=4,
        )
        record = ledger.build_record(result, dataset="er-test", seed=4)
        assert record.params["backend"] == "process"


class TestBackendSelectsNothing:
    PARAMS = dict(dimension=12, window=3, sample_multiplier=1.0)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_process_equals_thread_and_writes_no_file(
        self, graph, mmap_graph, tmp_path, monkeypatch, precision
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        reference = lightne_embedding(
            graph,
            LightNEParams(workers=2, precision=precision, **self.PARAMS),
            seed=9,
        )
        for g in (graph, mmap_graph):
            got = lightne_embedding(
                g,
                LightNEParams(
                    workers=2, backend="process", precision=precision,
                    **self.PARAMS,
                ),
                seed=9,
            )
            np.testing.assert_array_equal(got.vectors, reference.vectors)
            assert type(got.vectors) is np.ndarray
        assert os.listdir(tmp_path) == []

    def test_unknown_backend_is_a_backend_error(self, graph):
        with pytest.raises(BackendError, match="backend"):
            lightne_embedding(
                graph, LightNEParams(backend="fork", **self.PARAMS), seed=9
            )
