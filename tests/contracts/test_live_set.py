"""Live-set contract of the dense stages.

A dense stage holds what it still needs and nothing else, and the
temporaries it builds are bounded by a block, not by the operator:

* with the propagation operator cached, the Chebyshev filter's
  ``tracemalloc`` peak above its input is at most the modulated operator,
  four ``n×d`` buffers and the fused product's scratch sub-blocks — at one
  worker and at two;
* building the modulated operator costs about one row block above its
  output (and, in column tiles, its row pointers), whatever the operator's
  nnz: in one tile and in column tiles on either walk;
* when ``lightne_embedding`` enters propagation, the count matrix, the NetMF
  matrix and the factors ``U`` / ``Vᵀ`` are gone, with health digests
  recorded or not;
* when a single-precision run enters the rSVD, the float64 NetMF matrix is
  gone: the rSVD reads the float32 cast, which shares its index arrays;
* the NetMF transform scales, symmetrises and takes the log in place: its
  peak is the symmetrised matrix plus the larger of the transposed counts
  (alive while the sum is formed) and the log's two boolean masks — no
  further nnz-sized float64 array.

``tracemalloc`` counts the arrays the code holds, not the heap the allocator
keeps (``VmData``, which ``benchmarks/perf`` reports).
"""

from __future__ import annotations

import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.embedding.lightne as lightne_mod
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.graph.generators import dcsbm_graph
from repro.linalg import kernels, spectral
from repro.linalg.spectral import chebyshev_gaussian_filter, propagation_operator
from repro.sparsifier.builder import build_sparsifier, sparsifier_to_netmf_matrix
from repro.sparsifier.path_sampling import PathSamplingConfig
from repro.telemetry import health

# The module, not the function ``repro.linalg`` exports under its name.
rsvd_mod = importlib.import_module("repro.linalg.randomized_svd")

# Python bookkeeping a call may hold at its peak (task tuples, futures, range
# lists): far below one n×d buffer at these sizes.
SLACK_BYTES = 256 * 1024


def _traced(call):
    """``call()`` and the peak bytes it allocated above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _owned_bytes(operator) -> int:
    """Bytes the modulated operator adds: it shares ``D⁻¹(A+I)``'s indptr."""
    return operator.data.nbytes + operator.indices.nbytes


class TestFilterPeak:
    @pytest.fixture(scope="class")
    def graph(self):
        graph, _ = dcsbm_graph(8000, 8, avg_degree=10, seed=4)
        propagation_operator(graph)  # cached, as on every call after the first
        return graph

    @pytest.mark.parametrize("workers", [1, 2])
    def test_operator_four_buffers_and_the_scratch(self, graph, workers):
        x = np.random.default_rng(0).standard_normal((graph.num_vertices, 32))
        modulated = spectral._modulated_operator(propagation_operator(graph), 0.2)
        _, peak = _traced(
            lambda: chebyshev_gaussian_filter(graph, x, order=10, workers=workers)
        )
        scratch = 2 * workers * min(kernels.FUSED_BLOCK_BYTES, x.nbytes)
        bound = _owned_bytes(modulated) + 4 * x.nbytes + scratch + SLACK_BYTES
        assert peak <= bound, f"peak {peak} B above the live-set bound {bound} B"


class TestOperatorBuild:
    def test_transient_does_not_grow_with_nnz(self, monkeypatch):
        monkeypatch.setattr(spectral, "OPERATOR_BLOCK_NNZ", 4096)
        nnz, owned, transient = [], [], []
        for n in (1_000, 10_000):
            graph, _ = dcsbm_graph(n, 4, avg_degree=12, seed=1)
            da = propagation_operator(graph)
            modulated, peak = _traced(lambda: spectral._modulated_operator(da, 0.2))
            nnz.append(da.nnz)
            owned.append(_owned_bytes(modulated))
            transient.append(peak - owned[-1])
        assert nnz[1] >= 9 * nnz[0]
        small, large = transient
        assert large <= 1.5 * small + 32 * 1024, transient
        assert large < owned[1] / 8, (transient, owned)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiled_transient_does_not_grow_with_nnz(self, monkeypatch, dtype):
        # Float32 rows ascend (the rising walk), float64 rows descend (the
        # falling walk); tiles of 200 columns, capped at the entries per row.
        monkeypatch.setattr(spectral, "OPERATOR_BLOCK_NNZ", 4096)
        monkeypatch.setattr(kernels, "TILE_BYTES", 200 * 8)
        monkeypatch.setattr(kernels, "HOT_SHARE", 2.0)
        nnz, transient = [], []
        for n in (1_000, 10_000):
            graph, _ = dcsbm_graph(n, 4, avg_degree=12, seed=1)
            da = propagation_operator(graph, dtype)
            modulated, peak = _traced(lambda: spectral._modulated_operator(da, 0.2, 8))
            assert isinstance(modulated, kernels.TiledCSR)
            nnz.append(da.nnz)
            transient.append(peak - _owned_bytes(modulated) - modulated.offsets.nbytes)
        assert nnz[1] >= 9 * nnz[0]
        small, large = transient
        assert large <= 1.5 * small + 32 * 1024, transient


class TestDeadInputs:
    @pytest.mark.parametrize("policy", ["off", "record"])
    def test_gone_when_propagation_starts(self, monkeypatch, policy):
        refs = {}

        def spy(name, pick):
            real = getattr(lightne_mod, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                for key, value in pick(result).items():
                    refs[key] = weakref.ref(value)
                return result

            monkeypatch.setattr(lightne_mod, name, wrapper)

        spy("build_sparsifier", lambda result: {"counts": result.counts})
        spy("sparsifier_to_netmf_matrix", lambda matrix: {"netmf": matrix})
        spy("factorize", lambda factors: {"U": factors[0], "Vt": factors[2]})
        alive = {}
        propagate = lightne_mod.spectral_propagation

        def probe(graph, vectors, **kwargs):
            alive.update((key, ref() is not None) for key, ref in refs.items())
            return propagate(graph, vectors, **kwargs)

        monkeypatch.setattr(lightne_mod, "spectral_propagation", probe)
        graph, _ = dcsbm_graph(300, 4, avg_degree=10, seed=2)
        with health.policy_scope(policy):
            lightne_embedding(
                graph, LightNEParams(dimension=8, window=3, workers=1), seed=0
            )
        assert alive == {"counts": False, "netmf": False, "U": False, "Vt": False}


class TestNetMFMatrix:
    @pytest.mark.parametrize("policy", ["off", "record"])
    def test_float64_matrix_gone_when_the_rsvd_starts(self, monkeypatch, policy):
        refs, seen = {}, {}
        build = lightne_mod.sparsifier_to_netmf_matrix

        def spy(*args, **kwargs):
            matrix = build(*args, **kwargs)
            refs["netmf"] = weakref.ref(matrix)
            return matrix

        real = rsvd_mod.randomized_svd

        def probe(matrix, *args, **kwargs):
            seen.update(
                float64_alive=refs["netmf"]() is not None, dtype=matrix.dtype
            )
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(lightne_mod, "sparsifier_to_netmf_matrix", spy)
        monkeypatch.setattr(rsvd_mod, "randomized_svd", probe)
        graph, _ = dcsbm_graph(300, 4, avg_degree=10, seed=2)
        with health.policy_scope(policy):
            lightne_embedding(
                graph,
                LightNEParams(
                    dimension=8, window=3, workers=1, precision="single"
                ),
                seed=0,
            )
        assert seen == {"float64_alive": False, "dtype": np.float32}

    def test_transform_peak(self):
        graph, _ = dcsbm_graph(4000, 8, avg_degree=10, seed=4)
        config = PathSamplingConfig(
            window=3,
            num_samples=PathSamplingConfig.samples_for_multiplier(graph, 3, 10.0),
        )
        sparsifier = build_sparsifier(graph, config, seed=1, workers=1)
        counts, n = sparsifier.counts, graph.num_vertices
        pair = counts.data.itemsize + counts.indices.itemsize
        # scipy's sum allocates both operands' nnz before it prunes.
        symmetrised = 2 * counts.nnz * pair + (n + 1) * counts.indptr.itemsize
        transposed = counts.nnz * pair + (n + 1) * counts.indptr.itemsize
        masks = 2 * 2 * counts.nnz
        vectors = 4 * n * 8  # degrees, 1/d and their temporaries
        matrix, peak = _traced(
            lambda: sparsifier_to_netmf_matrix(graph, sparsifier)
        )
        assert matrix.nnz > 300_000  # the nnz-sized terms dominate the slack
        bound = symmetrised + max(transposed, masks) + vectors + SLACK_BYTES
        assert peak <= bound, f"peak {peak} B above the live-set bound {bound} B"
