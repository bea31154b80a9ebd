"""Tests for the shared parallel single-precision kernel layer.

Locks the layer's two load-bearing guarantees: threaded SPMM is
**bit-identical** to scipy's serial product at every worker count, and the
``precision="double"`` pipeline is bit-identical to the historical all-float64
implementation (the reference recurrences are re-stated inline here in their
original, allocation-heavy form).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import iv

from repro.errors import FactorizationError
from repro.graph.generators import dcsbm_graph
from repro.linalg import kernels
from repro.linalg.kernels import (
    cast_csr,
    cholesky_qr,
    gram,
    gram_rescale,
    orthonormalize,
    resolve_precision,
    scale_csr_columns,
    scale_csr_rows,
    spmm,
)
from repro.linalg.operators import polynomial_operator
from repro.linalg.randomized_svd import embedding_from_svd, randomized_svd
from repro.linalg.spectral import (
    _row_normalized_adjacency,
    chebyshev_gaussian_filter,
    propagation_operator,
    rescale_embedding,
    spectral_propagation,
)

WORKER_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def bundle():
    return dcsbm_graph(150, 3, avg_degree=10, mixing=0.1, seed=0)


class TestResolvePrecision:
    def test_named_policies(self):
        assert resolve_precision("double") == np.float64
        assert resolve_precision("single") == np.float32
        assert resolve_precision(None) == np.float64

    def test_raw_dtypes_pass_through(self):
        assert resolve_precision(np.float32) == np.float32
        assert resolve_precision(np.dtype(np.float64)) == np.float64

    def test_rejects_unknown(self):
        with pytest.raises(FactorizationError):
            resolve_precision("half")
        with pytest.raises(FactorizationError):
            resolve_precision(np.int32)


class TestSpmmParity:
    """Threaded SPMM must match ``matrix @ dense`` bit for bit."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_random_csr(self, workers, rng):
        matrix = sp.random(97, 53, density=0.1, random_state=3, format="csr")
        dense = rng.standard_normal((53, 7))
        expected = matrix @ dense
        np.testing.assert_array_equal(spmm(matrix, dense, workers=workers), expected)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_unsorted_indices_csr(self, bundle, workers, rng):
        # The propagation operator's indices are NOT column-sorted (csr @ csr
        # output); accumulation order must still match scipy exactly.
        graph, _ = bundle
        matrix = _row_normalized_adjacency(graph)
        dense = rng.standard_normal((graph.num_vertices, 5))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=workers), matrix @ dense
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_csc_column_chunks(self, workers, rng):
        matrix = sp.random(64, 80, density=0.15, random_state=9, format="csc")
        dense = rng.standard_normal((80, 12))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=workers), matrix @ dense
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_transposed_view(self, workers, rng):
        # A.T of a CSR matrix is CSC — the Aᵀ side of Algorithm 3.
        matrix = sp.random(70, 40, density=0.12, random_state=4, format="csr")
        dense = rng.standard_normal((70, 6))
        np.testing.assert_array_equal(
            spmm(matrix.T, dense, workers=workers), matrix.T @ dense
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_matrix(self, workers, rng):
        matrix = sp.csr_matrix((30, 20))
        dense = rng.standard_normal((20, 4))
        out = spmm(matrix, dense, workers=workers)
        np.testing.assert_array_equal(out, np.zeros((30, 4)))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_single_row(self, workers, rng):
        matrix = sp.random(1, 50, density=0.3, random_state=2, format="csr")
        dense = rng.standard_normal((50, 3))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=workers), matrix @ dense
        )

    def test_more_workers_than_rows(self, rng):
        matrix = sp.random(3, 10, density=0.5, random_state=1, format="csr")
        dense = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=16), matrix @ dense
        )

    def test_float32_stays_float32(self, rng):
        matrix = sp.random(40, 30, density=0.2, random_state=5, format="csr").astype(
            np.float32
        )
        dense = rng.standard_normal((30, 4)).astype(np.float32)
        out = spmm(matrix, dense, workers=4)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, matrix @ dense)

    def test_one_dimensional_vector(self, rng):
        matrix = sp.random(25, 18, density=0.2, random_state=6, format="csr")
        vec = rng.standard_normal(18)
        out = spmm(matrix, vec, workers=2)
        assert out.shape == (25,)
        np.testing.assert_array_equal(out, matrix @ vec)

    def test_dense_operand_falls_through(self, rng):
        matrix = rng.standard_normal((12, 9))
        dense = rng.standard_normal((9, 4))
        np.testing.assert_array_equal(spmm(matrix, dense), matrix @ dense)

    def test_coo_converted(self, rng):
        matrix = sp.random(30, 30, density=0.1, random_state=8, format="coo")
        dense = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=2), matrix.tocsr() @ dense
        )


class TestSpmmMixedDtype:
    """A CSR operator of another dtype than the result (the residual probe's
    float32 NetMF matrix against float64 probe vectors) is cast data-only:
    the row kernel reads the operator's own ``indices`` and ``indptr``."""

    @staticmethod
    def _float32_operator():
        matrix = sp.random(
            80, 60, density=0.15, random_state=12, format="csr",
            dtype=np.float32,
        )
        assert matrix.has_canonical_format
        return matrix

    def test_row_kernel_shares_the_operators_indices(self, monkeypatch, rng):
        matrix = self._float32_operator()
        seen = []
        row_kernel = kernels._csr_product

        def spy(indptr, indices, data, *rest):
            seen.append((indptr, indices, data))
            row_kernel(indptr, indices, data, *rest)

        monkeypatch.setattr(kernels, "_csr_product", spy)
        out = spmm(matrix, rng.standard_normal((60, 4)), workers=2)
        assert out.dtype == np.float64 and seen
        for indptr, indices, data in seen:
            assert np.shares_memory(indices, matrix.indices)
            assert np.shares_memory(indptr, matrix.indptr)
            assert data.dtype == np.float64

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_astype_on_canonical_inputs(self, workers, rng):
        matrix = self._float32_operator()
        dense = rng.standard_normal((60, 5))
        np.testing.assert_array_equal(
            spmm(matrix, dense, workers=workers),
            matrix.astype(np.float64) @ dense,
        )

    def test_residual_probe_in_the_ledger_is_unchanged(self, tmp_path):
        # ``factorization_residual`` as the commit before the data-only cast
        # recorded it; single precision is the run whose probe takes the cast.
        from repro.embedding import run_method
        from repro.graph.generators import erdos_renyi_graph
        from repro.telemetry import health, ledger

        graph = erdos_renyi_graph(120, 0.1, seed=5)
        path = tmp_path / "runs.jsonl"
        for precision in ("single", "double"):
            with ledger.enabled_scope(path=path), health.policy_scope("record"):
                run_method(
                    "lightne", graph, seed=11, dimension=8, window=3,
                    multiplier=4.0, workers=2, precision=precision,
                )
        residuals = [
            probe["value"]
            for record in ledger.RunLedger(path).records()
            for probe in record.health["probes"]
            if probe["name"] == "factorization_residual"
        ]
        assert residuals == [0.8308062205941019, 0.8308061588574536]


class TestSpmmOut:
    def test_out_is_returned_and_filled(self, rng):
        matrix = sp.random(40, 40, density=0.1, random_state=7, format="csr")
        dense = rng.standard_normal((40, 5))
        out = np.empty((40, 5))
        result = spmm(matrix, dense, out=out, workers=2)
        assert result is out
        np.testing.assert_array_equal(out, matrix @ dense)

    def test_out_overwrites_garbage(self, rng):
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        dense = rng.standard_normal((20, 3))
        out = np.full((20, 3), np.nan)
        spmm(matrix, dense, out=out)
        assert np.all(np.isfinite(out))

    def test_out_shape_mismatch(self, rng):
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        with pytest.raises(FactorizationError):
            spmm(matrix, rng.standard_normal((20, 3)), out=np.empty((20, 4)))

    def test_out_dtype_mismatch(self, rng):
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        with pytest.raises(FactorizationError):
            spmm(
                matrix,
                rng.standard_normal((20, 3)),
                out=np.empty((20, 3), dtype=np.float32),
            )

    def test_non_contiguous_out_rejected(self, rng):
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        backing = np.empty((20, 6))
        with pytest.raises(FactorizationError):
            spmm(matrix, rng.standard_normal((20, 3)), out=backing[:, ::2])

    def test_out_overlapping_dense_rejected(self, rng):
        """A row block is zeroed before ``dense`` is read: in-place use would
        silently return garbage, so it is an error, whole or partial."""
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        y = rng.standard_normal((20, 3))
        backing = rng.standard_normal((30, 3))
        for dense, out in ((y, y), (backing[:20], backing[10:])):
            before = dense.copy()
            with pytest.raises(FactorizationError, match="share memory"):
                spmm(matrix, dense, out=out, workers=2)
            np.testing.assert_array_equal(dense, before)  # rejected before any write

    def test_read_only_out_rejected(self, rng, tmp_path):
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        dense = rng.standard_normal((20, 3))
        np.zeros((20, 3)).tofile(tmp_path / "out.bin")
        mapped = np.memmap(tmp_path / "out.bin", dtype=np.float64, mode="r", shape=(20, 3))
        frozen = np.zeros((20, 3))
        frozen.flags.writeable = False
        for out in (mapped, frozen):
            with pytest.raises(FactorizationError, match="read-only"):
                spmm(matrix, dense, out=out, workers=2)

    def test_vector_out_for_vector_dense(self, rng):
        matrix = sp.random(20, 15, density=0.2, random_state=7, format="csr")
        vector = rng.standard_normal(15)
        out = np.full(20, np.nan)
        result = spmm(matrix, vector, out=out, workers=2)
        assert result.shape == (20,) and np.shares_memory(result, out)
        np.testing.assert_array_equal(out, matrix @ vector)
        with pytest.raises(FactorizationError):
            spmm(matrix, vector, out=np.empty(19))

    def test_shape_mismatch_rejected(self, rng):
        matrix = sp.random(20, 10, density=0.2, random_state=7, format="csr")
        with pytest.raises(FactorizationError):
            spmm(matrix, rng.standard_normal((20, 3)))

    def test_invalid_workers(self, rng):
        matrix = sp.random(10, 10, density=0.2, random_state=7, format="csr")
        with pytest.raises(FactorizationError):
            spmm(matrix, rng.standard_normal((10, 2)), workers=0)


class TestGram:
    def test_matches_dense_product(self, rng):
        a = rng.standard_normal((500, 12)).astype(np.float32)
        expected = a.astype(np.float64).T @ a.astype(np.float64)
        np.testing.assert_allclose(gram(a), expected, rtol=1e-12)

    def test_two_operands(self, rng):
        a = rng.standard_normal((300, 8)).astype(np.float32)
        b = rng.standard_normal((300, 5)).astype(np.float32)
        expected = a.astype(np.float64).T @ b.astype(np.float64)
        np.testing.assert_allclose(gram(a, b), expected, rtol=1e-12)

    def test_accumulates_in_float64(self, rng):
        a = rng.standard_normal((200, 4)).astype(np.float32)
        assert gram(a).dtype == np.float64

    def test_blocked_reduction_matches_unblocked(self, rng):
        a = rng.standard_normal((1000, 6)).astype(np.float32)
        np.testing.assert_allclose(
            gram(a, block_rows=64), gram(a, block_rows=10**9), rtol=1e-12
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(FactorizationError):
            gram(rng.standard_normal((10, 3)), rng.standard_normal((11, 3)))

    @pytest.mark.parametrize("rows", (1_000, 30_000, 100_000))
    def test_float32_upcast_is_one_block(self, rows):
        """``gram(a)`` of a float32 block holds at most one
        ``block_rows × k`` float64 block beside its ``k×k`` sums."""
        import tracemalloc

        k = 24
        a = np.ones((rows, k), dtype=np.float32)
        tracemalloc.start()
        try:
            gram(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = min(rows, kernels.BLOCK_ROWS) * k * 8
        sums = 2 * k * k * 8  # the result and one block's product
        assert peak <= block + sums + 4096


def _subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """sin of the largest principal angle between the column spaces."""
    overlap = q1.astype(np.float64).T @ q2.astype(np.float64)
    singular = np.linalg.svd(overlap, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - singular.min() ** 2)))


class TestCholeskyQR:
    def test_orthonormal_columns(self, rng):
        block = rng.standard_normal((300, 12))
        q = cholesky_qr(block)
        np.testing.assert_allclose(q.T @ q, np.eye(12), atol=1e-10)

    def test_same_subspace_as_householder(self, rng):
        block = rng.standard_normal((300, 12))
        q_chol = cholesky_qr(block)
        q_house, _ = np.linalg.qr(block)
        assert _subspace_distance(q_chol, q_house) < 1e-6

    def test_float32_block(self, rng):
        block = rng.standard_normal((400, 10)).astype(np.float32)
        q = cholesky_qr(block)
        assert q.dtype == np.float32
        np.testing.assert_allclose(
            q.astype(np.float64).T @ q.astype(np.float64), np.eye(10), atol=1e-4
        )

    def test_rank_deficient_falls_back(self, rng):
        base = rng.standard_normal((100, 3))
        block = np.hstack([base, base[:, :2]])  # rank 3, 5 columns
        q = cholesky_qr(block)  # must not raise; QR fallback path
        assert q.shape == (100, 5)
        assert np.all(np.isfinite(q))

    def test_fallback_counted(self, rng):
        from repro import telemetry

        tracer = telemetry.enable()
        try:
            base = rng.standard_normal((60, 2))
            cholesky_qr(np.hstack([base, base]))
            assert tracer.counters.get("linalg.cholesky_qr_fallbacks", 0) >= 1
        finally:
            telemetry.disable()

    def test_rejects_non_2d(self, rng):
        with pytest.raises(FactorizationError):
            cholesky_qr(rng.standard_normal(10))

    def test_orthonormalize_strategies(self, rng):
        block = rng.standard_normal((80, 6))
        q_qr = orthonormalize(block, strategy="qr")
        q_ch = orthonormalize(block, strategy="cholesky")
        assert _subspace_distance(q_qr, q_ch) < 1e-6
        with pytest.raises(FactorizationError):
            orthonormalize(block, strategy="gram-schmidt")


class TestGramRescale:
    def test_matches_svd_rescale_up_to_sign(self, rng):
        matrix = rng.standard_normal((200, 16))
        via_svd = rescale_embedding(matrix, 10, method="svd")
        via_gram = gram_rescale(matrix, 10)
        signs = np.sign(np.sum(via_svd * via_gram, axis=0))
        signs[signs == 0] = 1.0
        np.testing.assert_allclose(via_gram * signs[None, :], via_svd, atol=1e-8)

    def test_keeps_float32(self, rng):
        matrix = rng.standard_normal((150, 8)).astype(np.float32)
        assert gram_rescale(matrix).dtype == np.float32

    def test_rescale_embedding_gram_method(self, rng):
        matrix = rng.standard_normal((120, 6))
        np.testing.assert_array_equal(
            rescale_embedding(matrix, method="gram"), gram_rescale(matrix)
        )

    def test_rescale_embedding_rejects_unknown_method(self, rng):
        with pytest.raises(FactorizationError):
            rescale_embedding(rng.standard_normal((10, 4)), method="lanczos")

    def test_invalid_dimension(self, rng):
        with pytest.raises(FactorizationError):
            gram_rescale(rng.standard_normal((10, 4)), 5)


class TestChebyshevReference:
    """The rewritten buffer-reusing recurrence must be bit-identical to the
    original allocation-per-term implementation (re-stated here verbatim)."""

    @staticmethod
    def _reference_filter(graph, embedding, order=10, mu=0.2, theta=0.5):
        x = np.ascontiguousarray(embedding, dtype=np.float64)
        da = _row_normalized_adjacency(graph)
        n = graph.num_vertices
        laplacian = sp.eye(n, format="csr") - da
        modulated = (laplacian - mu * sp.eye(n, format="csr")).tocsr()
        lx0 = x
        lx1 = modulated @ x
        lx1 = 0.5 * (modulated @ lx1) - x
        conv = iv(0, theta) * lx0
        conv -= 2.0 * iv(1, theta) * lx1
        sign = 1.0
        for i in range(2, order):
            lx2 = modulated @ lx1
            lx2 = (modulated @ lx2 - 2.0 * lx1) - lx0
            conv += sign * 2.0 * iv(i, theta) * lx2
            sign = -sign
            lx0, lx1 = lx1, lx2
        return np.asarray(da @ (x - conv))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_reference(self, bundle, workers, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 12))
        expected = self._reference_filter(graph, x)
        out = chebyshev_gaussian_filter(graph, x, order=10, workers=workers)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("order", (2, 3, 5))
    def test_bit_identical_small_orders(self, bundle, order, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4))
        np.testing.assert_array_equal(
            chebyshev_gaussian_filter(graph, x, order=order),
            self._reference_filter(graph, x, order=order),
        )

    def test_input_not_mutated(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4))
        snapshot = x.copy()
        chebyshev_gaussian_filter(graph, x, order=8, workers=4)
        np.testing.assert_array_equal(x, snapshot)

    def test_order_one_keeps_input_dtype(self, bundle, rng):
        """The identity filter is a copy: no widening past the requested
        precision, and never the caller's own array."""
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4)).astype(np.float32)
        out = chebyshev_gaussian_filter(graph, x, order=1, precision="single")
        assert out.dtype == np.float32
        assert out is not x
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("input_dtype", (np.float64, np.float32))
    @pytest.mark.parametrize(
        "precision, dtype", (("double", np.float64), ("single", np.float32))
    )
    @pytest.mark.parametrize("order", (1, 2))
    def test_result_dtype_follows_precision(
        self, bundle, rng, order, precision, dtype, input_dtype
    ):
        """``precision`` picks the dtype of the result at every order —
        order 1 used to hand back the input dtype instead."""
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 4)).astype(input_dtype)
        filtered = chebyshev_gaussian_filter(
            graph, x, order=order, precision=precision
        )
        assert filtered.dtype == dtype
        propagated = spectral_propagation(
            graph, x, order=order, precision=precision
        )
        assert propagated.dtype == dtype

    def test_single_precision_close_to_double(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 8))
        double = chebyshev_gaussian_filter(graph, x, order=10)
        single = chebyshev_gaussian_filter(graph, x, order=10, precision="single")
        assert single.dtype == np.float32
        scale = np.abs(double).max()
        np.testing.assert_allclose(
            single.astype(np.float64), double, atol=1e-4 * scale
        )


class TestPropagationOperatorCache:
    def test_same_object_returned(self, bundle):
        graph, _ = bundle
        first = propagation_operator(graph)
        second = propagation_operator(graph)
        assert first is second

    def test_dtype_keys_are_distinct(self, bundle):
        graph, _ = bundle
        double = propagation_operator(graph, np.float64)
        single = propagation_operator(graph, np.float32)
        assert single.dtype == np.float32
        assert single is propagation_operator(graph, np.float32)
        assert double is propagation_operator(graph)
        np.testing.assert_allclose(
            single.toarray(), double.toarray().astype(np.float32)
        )

    def test_matches_direct_build(self, bundle):
        graph, _ = bundle
        cached = propagation_operator(graph)
        direct = _row_normalized_adjacency(graph)
        np.testing.assert_array_equal(cached.toarray(), direct.toarray())

    def test_cache_not_part_of_equality(self, bundle):
        graph, _ = bundle
        twin = dcsbm_graph(150, 3, avg_degree=10, mixing=0.1, seed=0)[0]
        propagation_operator(graph)  # populate one side's cache only
        assert graph == twin


class TestInPlaceOperatorKernels:
    @staticmethod
    def _matrix():
        matrix = sp.random(40, 30, density=0.2, random_state=3, format="csr")
        matrix.data += 0.5
        return matrix

    def test_scalings_are_the_diagonal_products(self, rng):
        matrix, rows, cols = self._matrix(), rng.random(40), rng.random(30)
        want = sp.diags(rows) @ matrix @ sp.diags(cols)
        scale_csr_rows(matrix, rows)
        scale_csr_columns(matrix, cols)
        np.testing.assert_array_equal(matrix.toarray(), want.toarray())

    @pytest.mark.parametrize("scale", [scale_csr_rows, scale_csr_columns])
    def test_wrong_factor_count_is_rejected(self, scale):
        matrix = self._matrix()
        before = matrix.data.copy()
        with pytest.raises(FactorizationError, match="scale factors"):
            scale(matrix, np.ones(41))
        np.testing.assert_array_equal(matrix.data, before)

    def test_cast_shares_the_index_arrays(self):
        # Rows stored in descending order stay that way: only data is copied.
        matrix = self._matrix()
        matrix.indices = np.ascontiguousarray(matrix.indices[::-1])
        matrix.data = np.ascontiguousarray(matrix.data[::-1])
        matrix.indptr = (matrix.nnz - matrix.indptr[::-1]).astype(matrix.indptr.dtype)
        single = cast_csr(matrix, np.float32)
        assert single.dtype == np.float32
        assert np.shares_memory(single.indices, matrix.indices)
        assert np.shares_memory(single.indptr, matrix.indptr)
        np.testing.assert_array_equal(single.indices, matrix.indices)
        np.testing.assert_array_equal(single.data, matrix.data.astype(np.float32))
        assert cast_csr(matrix, np.float64) is matrix


class TestPolynomialOperatorHorner:
    def test_matches_explicit_polynomial(self, rng):
        walk = sp.random(60, 60, density=0.1, random_state=11, format="csr")
        coefficients = [0.4, 0.3, 0.2, 0.1]
        operator = polynomial_operator(walk, coefficients)
        dense = walk.toarray()
        explicit = sum(
            c * np.linalg.matrix_power(dense, r) for r, c in enumerate(coefficients)
        )
        block = rng.standard_normal((60, 5))
        np.testing.assert_allclose(operator.matmat(block), explicit @ block, rtol=1e-10)
        np.testing.assert_allclose(
            operator.rmatmat(block), explicit.T @ block, rtol=1e-10
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_workers_bit_identical(self, workers, rng):
        walk = sp.random(80, 80, density=0.08, random_state=13, format="csr")
        coefficients = [0.5, 0.25, 0.125]
        serial = polynomial_operator(walk, coefficients, workers=1)
        threaded = polynomial_operator(walk, coefficients, workers=workers)
        block = rng.standard_normal((80, 4))
        np.testing.assert_array_equal(threaded.matmat(block), serial.matmat(block))

    def test_float32_dtype(self, rng):
        walk = sp.random(40, 40, density=0.1, random_state=17, format="csr")
        operator = polynomial_operator(walk, [0.6, 0.4], dtype=np.float32)
        assert operator.dtype == np.float32
        out = operator.matmat(rng.standard_normal((40, 3)).astype(np.float32))
        assert out.dtype == np.float32

    def test_single_coefficient(self, rng):
        walk = sp.random(30, 30, density=0.1, random_state=19, format="csr")
        operator = polynomial_operator(walk, [2.0])
        block = rng.standard_normal((30, 2))
        np.testing.assert_array_equal(operator.matmat(block), 2.0 * block)


class TestSinglePrecisionPipeline:
    """float32 end-to-end quality within documented tolerance of float64."""

    def test_randomized_svd_single_matches_double(self, rng):
        matrix = sp.random(400, 300, density=0.05, random_state=23, format="csr")
        u64, s64, vt64 = randomized_svd(matrix, 16, seed=5)
        u32, s32, vt32 = randomized_svd(matrix, 16, seed=5, precision="single")
        assert u32.dtype == np.float32 and vt32.dtype == np.float32
        np.testing.assert_allclose(s32, s64, rtol=1e-3)
        assert _subspace_distance(u32, u64) < 1e-2

    def test_embedding_from_svd_keeps_float32(self, rng):
        u = rng.standard_normal((50, 8)).astype(np.float32)
        sigma = np.abs(rng.standard_normal(8))
        assert embedding_from_svd(u, sigma).dtype == np.float32

    def test_spectral_propagation_single(self, bundle, rng):
        graph, _ = bundle
        x = rng.standard_normal((graph.num_vertices, 16))
        double = spectral_propagation(graph, x, order=10)
        single = spectral_propagation(graph, x, order=10, precision="single")
        assert single.dtype == np.float32
        # Compare up to per-column sign (SVD vs Gram-eigh ambiguity).
        signs = np.sign(np.sum(double * single.astype(np.float64), axis=0))
        signs[signs == 0] = 1.0
        np.testing.assert_allclose(
            single.astype(np.float64) * signs[None, :], double, atol=5e-3
        )

    def test_lightne_single_quality(self):
        from repro.embedding.lightne import LightNEParams, lightne_embedding
        from repro.eval.node_classification import evaluate_node_classification

        graph, labels = dcsbm_graph(200, 4, avg_degree=12, mixing=0.1, seed=3)
        double = lightne_embedding(
            graph,
            LightNEParams(dimension=16, sample_multiplier=2.0, precision="double"),
            seed=0,
        )
        single = lightne_embedding(
            graph,
            LightNEParams(dimension=16, sample_multiplier=2.0, precision="single"),
            seed=0,
        )
        assert single.vectors.dtype == np.float32
        f64 = evaluate_node_classification(
            double.vectors, labels, 0.5, repeats=2, seed=1
        )
        f32 = evaluate_node_classification(
            single.vectors.astype(np.float64), labels, 0.5, repeats=2, seed=1
        )
        assert f32.micro_f1 >= f64.micro_f1 - 0.05


class TestDefaultPathStability:
    """workers/precision defaults must not perturb the legacy embeddings."""

    @pytest.mark.parametrize("method", ["lightne", "prone", "netsmf", "nrp"])
    def test_workers_sweep_bit_identical(self, method, bundle):
        from repro.embedding.registry import run_method

        graph, _ = bundle
        baseline = run_method(method, graph, seed=7, dimension=8, workers=1)
        for workers in (2, 8):
            again = run_method(method, graph, seed=7, dimension=8, workers=workers)
            np.testing.assert_array_equal(again.vectors, baseline.vectors)

    def test_explicit_single_is_default(self, bundle):
        from repro.embedding.registry import run_method

        graph, _ = bundle
        default = run_method("lightne", graph, seed=7, dimension=8)
        explicit = run_method(
            "lightne", graph, seed=7, dimension=8, precision="single"
        )
        assert default.vectors.dtype == np.float32
        np.testing.assert_array_equal(default.vectors, explicit.vectors)

    # sha256 of the float64 embeddings, recorded before LightNE's default
    # became "single": the double path must keep its bits.
    DOUBLE_DIGESTS = {
        "lightne": "a031b89cfa473f58455a67472f125da783ab11db107948b051d38ebf12ecf196",
        "prone": "64db36731e764d2edc53431f93606804ccb829fae4be8b609c1009f09bc056e1",
        "netmf": "2ab09ae0939c00ab3b12145e4857aa7ef360507bbdcb2e7d0dbd87d1cc061576",
        "nrp": "b1be701bdac3cdf887f2dad474e8e6f998c1eb66a1d857dcb53f7ad03b7ab578",
    }

    @pytest.mark.parametrize("method", sorted(DOUBLE_DIGESTS))
    def test_double_path_keeps_its_bits(self, method, bundle):
        import hashlib

        from repro.embedding.registry import run_method

        graph, _ = bundle
        vectors = run_method(
            method, graph, seed=7, dimension=8, precision="double"
        ).vectors
        assert vectors.dtype == np.float64
        digest = hashlib.sha256(np.ascontiguousarray(vectors).tobytes()).hexdigest()
        assert digest == self.DOUBLE_DIGESTS[method]
