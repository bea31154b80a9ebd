"""Out-of-core execution: residency changes, bits do not.

The contract under test is the one stated in docs/performance.md: switching
``backend="thread"`` → ``backend="process"`` (file-backed propagation
buffers) and an in-memory graph for a memmapped CSR v2 container changes
*where* the buffers live, never a single output bit — at every worker count.
Every stage runs on the thread pool either way.
"""

from __future__ import annotations

import concurrent.futures
import mmap
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.embedding import lightne as lightne_mod
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.errors import FactorizationError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import load_csr_v2, save_csr_v2
from repro.linalg import kernels
from repro.linalg.kernels import release_pages, spmm
from repro.linalg.spectral import spectral_propagation
from repro.sparsifier.builder import build_sparsifier
from repro.sparsifier.path_sampling import PathSamplingConfig


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
    """``spmm`` bounds its own row blocks (the cases of the former chunked
    kernel; the block height is ``SPMM_WORKSPACE_BYTES // row_bytes``)."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(400, 300, density=0.03, random_state=7, format="csr")
        dense = rng.standard_normal((300, 17))
        return matrix, dense

    @staticmethod
    def _block_rows(monkeypatch, rows, out_cols, itemsize=8):
        monkeypatch.setattr(
            kernels, "SPMM_WORKSPACE_BYTES", rows * out_cols * itemsize
        )

    @pytest.mark.parametrize("block_rows", [None, 1, 7, 100, 10_000])
    def test_matches_spmm(self, operands, block_rows, monkeypatch):
        matrix, dense = operands
        reference = matrix @ dense
        if block_rows is not None:
            self._block_rows(monkeypatch, block_rows, dense.shape[1])
        np.testing.assert_array_equal(spmm(matrix, dense, workers=2), reference)

    def test_memmapped_out(self, operands, tmp_path, monkeypatch):
        matrix, dense = operands
        out = np.lib.format.open_memmap(
            tmp_path / "out.npy", mode="w+", dtype=np.float64,
            shape=(matrix.shape[0], dense.shape[1]),
        )
        self._block_rows(monkeypatch, 64, dense.shape[1])
        got = spmm(matrix, dense, out=out)
        assert got is out
        np.testing.assert_array_equal(np.asarray(out), matrix @ dense)

    def test_vector_rhs(self, operands, monkeypatch):
        matrix, _ = operands
        vector = np.random.default_rng(1).standard_normal(matrix.shape[1])
        self._block_rows(monkeypatch, 33, 1)
        np.testing.assert_array_equal(spmm(matrix, vector), matrix @ vector)

    def test_workspace_bound_respected(self, operands, monkeypatch):
        matrix, dense = operands
        # A workspace below one row must still cover every row, one per block.
        monkeypatch.setattr(kernels, "SPMM_WORKSPACE_BYTES", dense.itemsize)
        np.testing.assert_array_equal(spmm(matrix, dense), matrix @ dense)


class _MadviseRecorder:
    """Stands in for a memmap's raw mapping: forwards, and notes each range."""

    def __init__(self, raw):
        self.raw = raw
        self.ranges = []

    def __len__(self):
        return len(self.raw)

    def madvise(self, option, start, length):
        assert option == mmap.MADV_DONTNEED
        self.ranges.append((start, start + length))
        return self.raw.madvise(option, start, length)


@pytest.mark.skipif(
    not hasattr(mmap.mmap, "madvise"), reason="platform without madvise"
)
class TestReleasePages:
    ROWS, COLS = 1000, 24  # 192-byte rows: row and page boundaries interleave

    def _buffer(self, tmp_path, mode):
        """A raw offset-0 memmap over known contents, with a spied mapping."""
        path = tmp_path / "buffer.bin"
        contents = np.arange(self.ROWS * self.COLS, dtype=np.float64)
        contents.tofile(path)
        buffer = np.memmap(
            path, dtype=np.float64, mode=mode, shape=(self.ROWS, self.COLS)
        )
        buffer._mmap = _MadviseRecorder(buffer._mmap)
        return buffer, contents.reshape(self.ROWS, self.COLS)

    def test_shared_mapping_survives_whole_array_release(self, tmp_path):
        buffer, contents = self._buffer(tmp_path, "r+")
        buffer *= 2.0  # dirty every page
        release_pages(buffer)
        assert buffer._mmap.ranges == [(0, buffer.nbytes)]
        np.testing.assert_array_equal(buffer, contents * 2.0)

    def test_row_range_is_aligned_inward(self, tmp_path):
        buffer, contents = self._buffer(tmp_path, "r+")
        buffer += 1.0
        page, row_bytes = mmap.PAGESIZE, self.COLS * 8
        r0, r1 = 30, 700
        release_pages(buffer, r0, r1)
        (start, end), = buffer._mmap.ranges
        assert start % page == 0 and end % page == 0
        assert r0 * row_bytes <= start < r0 * row_bytes + page
        assert r1 * row_bytes - page < end <= r1 * row_bytes
        np.testing.assert_array_equal(buffer, contents + 1.0)
        # A range that covers no whole page releases nothing.
        release_pages(buffer, 1, 3)
        assert len(buffer._mmap.ranges) == 1

    def test_fresh_w_plus_buffer(self, tmp_path):
        buffer = np.memmap(
            tmp_path / "fresh.bin", dtype=np.float32, mode="w+", shape=(600, 33)
        )
        buffer[:] = np.arange(33, dtype=np.float32)
        release_pages(buffer, 0, 300)
        release_pages(buffer)
        np.testing.assert_array_equal(
            buffer, np.tile(np.arange(33, dtype=np.float32), (600, 1))
        )

    def test_private_mapping_is_never_released(self, tmp_path):
        """``MADV_DONTNEED`` on a ``MAP_PRIVATE`` mapping would throw the
        dirty pages away; mode ``"c"`` must be left alone."""
        buffer, contents = self._buffer(tmp_path, "c")
        buffer -= 5.0
        release_pages(buffer)
        release_pages(buffer, 0, self.ROWS)
        assert buffer._mmap.ranges == []
        np.testing.assert_array_equal(buffer, contents - 5.0)

    def test_other_arrays_are_never_touched(self, tmp_path):
        plain = np.ones((64, 8))
        release_pages(plain)
        release_pages(plain, 0, 64)
        np.testing.assert_array_equal(plain, np.ones((64, 8)))
        # Rows of a partial view are not offsets into the mapping, and a
        # read-only mapping has nothing of ours to drop.
        buffer, _ = self._buffer(tmp_path, "r+")
        release_pages(buffer[100:])
        release_pages(buffer[:, :8])
        assert buffer._mmap.ranges == []
        readonly, _ = self._buffer(tmp_path, "r")
        release_pages(readonly)
        assert readonly._mmap.ranges == []

    def test_chunked_spmm_releases_the_written_prefix(self, tmp_path, monkeypatch):
        """``spmm`` hands back each finished row block of a memmapped ``out``
        (all of the written prefix, block by block)."""
        rng = np.random.default_rng(3)
        matrix = sp.random(self.ROWS, 300, density=0.03, random_state=7, format="csr")
        dense = rng.standard_normal((300, self.COLS))
        out, _ = self._buffer(tmp_path, "r+")
        page, row_bytes = mmap.PAGESIZE, self.COLS * 8
        monkeypatch.setattr(kernels, "SPMM_WORKSPACE_BYTES", 128 * row_bytes)
        spmm(matrix, dense, out=out)
        blocks = [(r0, r0 + 125) for r0 in range(0, self.ROWS, 125)]  # ⌈1000/128⌉ = 8
        assert out._mmap.ranges == [
            (-(-r0 * row_bytes // page) * page, r1 * row_bytes // page * page)
            for r0, r1 in blocks
        ]
        np.testing.assert_array_equal(np.asarray(out), matrix @ dense)


class TestPropagationOffload:
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_offload_bit_identical(self, graph, tmp_path, precision):
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

    def test_unusable_offload_dir_is_a_typed_error(self, graph, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("x")
        vectors = np.random.default_rng(2).standard_normal((graph.num_vertices, 8))
        with pytest.raises(FactorizationError, match="not-a-directory") as caught:
            spectral_propagation(
                graph, vectors, order=6, offload_dir=str(blocker / "spill")
            )
        assert isinstance(caught.value.__cause__, OSError)
        assert os.listdir(tmp_path) == ["not-a-directory"]

    def test_failure_mid_filter_leaves_the_offload_dir_empty(
        self, graph, tmp_path, monkeypatch
    ):
        """Nothing cleans up after the failing call: each buffer's file is
        unlinked right after it is mapped, so there is never a name left."""
        from repro.linalg import spectral

        calls = []

        def failing_spmm(*args, **kwargs):
            calls.append(os.listdir(tmp_path))
            if len(calls) == 3:
                raise RuntimeError("third product fails")
            return spmm(*args, **kwargs)

        monkeypatch.setattr(spectral, "spmm", failing_spmm)
        vectors = np.random.default_rng(2).standard_normal((graph.num_vertices, 8))
        with pytest.raises(RuntimeError, match="third product"):
            spectral_propagation(graph, vectors, order=6, offload_dir=str(tmp_path))
        assert calls == [[], [], []]  # already nameless while mapped and in use
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
        """``backend="process"`` is a residency: the filter's buffers go to
        temp-file memmaps and nothing forks, however many slabs there are."""
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
        assert len(offload_dirs) == 1 and offload_dirs[0] is not None

    def test_ledger_records_backend(self, graph, tmp_path):
        from repro.telemetry import ledger

        result = lightne_embedding(
            graph,
            LightNEParams(dimension=8, window=3, backend="process", workers=2),
            seed=4,
        )
        record = ledger.build_record(result, dataset="er-test", seed=4)
        assert record.params["backend"] == "process"
