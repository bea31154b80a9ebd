"""One thread budget in the dense stages: numpy's BLAS held at one thread
wherever the library's own pool runs the big products.

:func:`repro.utils.parallel.single_blas_thread` is the scope; the rSVD on a
sparse or implicit operator and the spectral propagation open it, a dense
operand keeps threaded BLAS.  The contract this buys: a ``precision="double"``
embedding no longer depends on the BLAS thread count the caller set.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.datasets.registry import load_dataset
from repro.embedding.registry import run_method
from repro.graph.generators import erdos_renyi_graph
from repro.utils import parallel
from repro.utils.parallel import blas_threads, set_blas_threads, single_blas_thread

# The modules, not the functions ``repro.linalg`` re-exports under the same
# names.
rsvd_module = importlib.import_module("repro.linalg.randomized_svd")
spectral_module = importlib.import_module("repro.linalg.spectral")

needs_blas_control = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's BLAS has no OpenBLAS thread control"
)


def _live_count() -> int:
    """numpy's BLAS thread count right now, inside a scope or not."""
    return parallel._numpy_blas()[1]()


@pytest.fixture
def two_blas_threads():
    """numpy's BLAS at two threads for the test, the caller's count after."""
    before = blas_threads()
    set_blas_threads(2)
    yield
    set_blas_threads(before)


@needs_blas_control
@pytest.mark.usefixtures("two_blas_threads")
class TestScope:
    def test_holds_one_thread_and_restores_on_exit(self):
        with single_blas_thread():
            assert _live_count() == 1
            assert blas_threads() == 2  # the caller's count, as seen outside
        assert _live_count() == 2

    def test_restores_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="inside"):
            with single_blas_thread():
                raise RuntimeError("inside")
        assert _live_count() == 2

    def test_nested_scopes_share_one_hold(self):
        with single_blas_thread():
            with single_blas_thread():
                assert _live_count() == 1
            assert _live_count() == 1
        assert _live_count() == 2

    def test_set_inside_a_scope_changes_what_it_restores(self):
        with single_blas_thread():
            set_blas_threads(1)
            assert _live_count() == 1
            assert blas_threads() == 1
        assert _live_count() == 1
        set_blas_threads(2)
        assert _live_count() == 2

    def test_two_threads_restore_only_after_both_finish(self):
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with single_blas_thread():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with single_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["after_first_left"] = _live_count()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen["after_first_left"] == 1
        assert _live_count() == 2

    def test_many_threads_never_lose_the_hold(self):
        """More threads than cores entering and leaving at a short switch
        interval: every body sees one thread, and the count comes back."""
        violations = []

        def churn():
            for _ in range(200):
                with single_blas_thread():
                    time.sleep(0)  # let another thread enter or leave
                    if _live_count() != 1:
                        violations.append(_live_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert violations == []
        assert _live_count() == 2

    def test_two_pipelines_in_threads_match_their_serial_runs(self):
        graph = erdos_renyi_graph(400, 0.03, seed=5)
        expected = {
            method: run_method(
                method, graph, seed=3, dimension=8, precision="double"
            ).vectors
            for method in ("lightne", "prone")
        }
        got = {}

        def embed(method):
            got[method] = run_method(
                method, graph, seed=3, dimension=8, precision="double"
            ).vectors

        threads = [threading.Thread(target=embed, args=(m,)) for m in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        for method, vectors in expected.items():
            np.testing.assert_array_equal(got[method], vectors)
        assert _live_count() == 2

    def test_bad_count_is_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            set_blas_threads(0)


class TestWithoutBlasControl:
    def test_run_succeeds_when_discovery_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(parallel, "_numpy_blas", lambda: None)
        assert blas_threads() is None
        set_blas_threads(3)  # a no-op, not an error
        with single_blas_thread():
            pass
        graph = erdos_renyi_graph(200, 0.05, seed=1)
        for method in ("lightne", "nrp"):
            vectors = run_method(method, graph, seed=0, dimension=8).vectors
            assert np.isfinite(vectors).all()


@needs_blas_control
@pytest.mark.usefixtures("two_blas_threads")
class TestWhereTheScopeOpens:
    @pytest.fixture
    def counts(self, monkeypatch):
        """BLAS thread counts seen by every orthonormalization of the rSVD."""
        seen = []
        real = rsvd_module.cholesky_qr

        def recording(block, **kwargs):
            seen.append(_live_count())
            return real(block, **kwargs)

        monkeypatch.setattr(rsvd_module, "cholesky_qr", recording)
        return seen

    def test_sparse_operator_runs_on_one_blas_thread(self, counts):
        matrix = sp.random(300, 300, density=0.05, format="csr", random_state=0)
        rsvd_module.randomized_svd(matrix, 8, seed=0, workers=2)
        assert counts and set(counts) == {1}
        assert _live_count() == 2

    def test_linear_operator_runs_on_one_blas_thread(self, counts):
        matrix = sp.random(300, 300, density=0.05, format="csr", random_state=0)
        rsvd_module.randomized_svd(spla.aslinearoperator(matrix), 8, seed=0)
        assert counts and set(counts) == {1}

    def test_dense_operand_keeps_threaded_blas(self, counts):
        matrix = np.random.default_rng(0).standard_normal((300, 200))
        rsvd_module.randomized_svd(matrix, 8, seed=0)
        assert counts and set(counts) == {2}

    def test_propagation_runs_on_one_blas_thread(self, monkeypatch):
        seen = []
        real = spectral_module.gram_rescale

        def recording(matrix, dimension):
            seen.append(_live_count())
            return real(matrix, dimension)

        monkeypatch.setattr(spectral_module, "gram_rescale", recording)
        graph = erdos_renyi_graph(300, 0.03, seed=2)
        embedding = np.random.default_rng(0).standard_normal((300, 8))
        spectral_module.spectral_propagation(graph, embedding, workers=2)
        assert seen == [1]
        assert _live_count() == 2


@needs_blas_control
class TestDoublePathIgnoresBlasThreads:
    """A float64 embedding on a graph large enough that OpenBLAS threads its
    GEMMs is bit-identical whatever numpy's BLAS thread count was."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("youtube_like", seed=0).graph  # n = 2000

    @pytest.mark.parametrize("method", ["lightne", "prone", "nrp"])
    def test_bit_identical_at_one_and_two_blas_threads(self, method, graph):
        before = blas_threads()
        digests = []
        try:
            for count in (1, 2):
                set_blas_threads(count)
                vectors = run_method(
                    method, graph, seed=7, dimension=16, precision="double",
                    workers=2,
                ).vectors
                assert vectors.dtype == np.float64
                data = np.ascontiguousarray(vectors).tobytes()
                digests.append(hashlib.sha256(data).hexdigest())
        finally:
            set_blas_threads(before)
        assert digests[0] == digests[1]
