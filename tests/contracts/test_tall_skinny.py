"""Contracts of the BLAS-3 tall-skinny layer (``repro.linalg.kernels``).

The orthogonality contract is stated once, in the ``kernels`` module
docstring; this file enforces it — property-based where the input space is
large — together with what the callers build on it: the randomized SVD's
accuracy inside the Halko–Martinsson–Tropp error bound and the
subspace-iteration rate on both precisions and both ``symmetric`` settings,
the Gram-trick rescale against its dense-SVD oracle, and the determinism the
shared buffers must not break.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import FactorizationError
from repro.graph.generators import dcsbm_graph
from repro.linalg import kernels
from repro.linalg.kernels import ONE_PASS_COND_SQ, cholesky_qr, orthonormalize
from repro.linalg.randomized_svd import exact_reference_svd, randomized_svd
from repro.linalg.spectral import rescale_embedding, spectral_propagation

DTYPES = (np.float64, np.float32)
FALLBACKS = "linalg.cholesky_qr_fallbacks"


def _eps(dtype) -> float:
    return float(np.finfo(dtype).eps)


def _fallback_threshold(dtype) -> float:
    """The documented acceptance limit ``cond² ≤ min(1/eps², 1/eps₆₄)`` as a
    bound on ``cond``: ``1/√eps₆₄`` for float64, ``1/eps₃₂`` for float32."""
    return math.sqrt(min(1.0 / _eps(dtype) ** 2, 1.0 / _eps(np.float64)))


def _block(n: int, k: int, cond: float, dtype, seed: int, rotate: bool) -> np.ndarray:
    """``n×k`` block with log-spaced singular values ``1 … 1/cond``.

    ``rotate=False`` leaves the columns orthogonal and merely scaled;
    ``rotate=True`` mixes them by a random orthogonal matrix, so every column
    carries every singular direction (the case a column-norm or ``diag(L)``
    condition estimate gets wrong).
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, k)))
    spectrum = np.logspace(0.0, -math.log10(cond), k) if k > 1 else np.ones(1)
    block = basis * spectrum
    if rotate:
        mixer, _ = np.linalg.qr(rng.standard_normal((k, k)))
        block = block @ mixer.T
    return block.astype(dtype)


def _orthogonality_loss(q: np.ndarray) -> float:
    q = q.astype(np.float64)
    return float(np.abs(q.T @ q - np.eye(q.shape[1])).max())


def _range_distance(q: np.ndarray, block: np.ndarray) -> float:
    """``‖(I − P_B) Q‖₂`` with ``P_B`` from the float64 Householder oracle."""
    oracle = orthonormalize(block.astype(np.float64), strategy="qr")
    q = q.astype(np.float64)
    return float(np.linalg.norm(q - oracle @ (oracle.T @ q), 2))


@contextlib.contextmanager
def _fallback_counter():
    """Telemetry on for the block; yields a reader of the fallback count."""
    telemetry.enable()
    try:
        yield lambda: telemetry.get_tracer().counters.get(FALLBACKS, 0)
    finally:
        telemetry.disable()


@pytest.fixture
def counters():
    with _fallback_counter() as read:
        yield read


def _count_gram_calls(patch: pytest.MonkeyPatch) -> list:
    """One list entry per Gram matrix the kernel layer forms = per pass."""
    calls = []
    original = kernels.gram

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    patch.setattr(kernels, "gram", counting)
    return calls


@pytest.fixture
def gram_calls(monkeypatch):
    return _count_gram_calls(monkeypatch)


block_shapes = st.integers(1, 24).flatmap(
    lambda k: st.tuples(st.integers(k, 8 * k + 40), st.just(k))
)
log_cond = st.floats(0.0, 8.5)


class TestOrthogonalityContract:
    @given(block_shapes, log_cond, st.sampled_from(DTYPES), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    # cond just beyond twice the float64 limit, whose Gram matrix's
    # eigvalsh alone reads as inside it.
    @example((49, 3), 8.137561046351685, np.float64, True, 3040)
    def test_accepted_blocks_meet_the_bound(self, shape, exponent, dtype, rotate, seed):
        n, k = shape
        cond = 10.0 ** exponent if k > 1 else 1.0
        threshold = _fallback_threshold(dtype)
        # Inside the band around the threshold either outcome is allowed.
        assume(not threshold / 2 < cond < threshold * 2)
        block = _block(n, k, cond, dtype, seed, rotate)
        with _fallback_counter() as read:
            q = cholesky_qr(block)
            fell_back = read()
        assert q.dtype == dtype and q.shape == block.shape
        assert _orthogonality_loss(q) <= 1e3 * _eps(dtype)
        # The counted Householder fallback fires exactly beyond the limit.
        assert fell_back == (1 if cond > threshold else 0)
        if not fell_back:
            assert _range_distance(q, block) <= 1e2 * _eps(dtype) * cond

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("side", ("below", "above"))
    def test_fallback_fires_exactly_beyond_threshold(
        self, counters, dtype, rotate, side
    ):
        threshold = _fallback_threshold(dtype)
        cond = threshold / 3 if side == "below" else threshold * 3
        q = cholesky_qr(_block(400, 6, cond, dtype, seed=11, rotate=rotate))
        assert counters() == (0 if side == "below" else 1)
        assert _orthogonality_loss(q) <= 1e3 * _eps(dtype)

    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("cond", (1e4, 1e5, 1e6, 3e6))
    def test_float32_between_root_and_inverse_eps_takes_two_passes(
        self, gram_calls, counters, cond, rotate
    ):
        """``1/√eps₃₂ < cond < 1/eps₃₂``: the float64 Gram matrix keeps the
        block inside CholeskyQR2's reach, so no Householder fallback."""
        assert 1.0 / math.sqrt(_eps(np.float32)) < cond < 1.0 / _eps(np.float32)
        block = _block(2000, 24, cond, np.float32, seed=7, rotate=rotate)
        q = cholesky_qr(block)
        assert len(gram_calls) == 2 and counters() == 0
        assert q.dtype == np.float32
        assert _orthogonality_loss(q) <= 1e3 * _eps(np.float32)
        assert _range_distance(q, block) <= 1e2 * _eps(np.float32) * cond

    def test_rank_deficient_block_is_a_counted_fallback(self, counters):
        base = np.random.default_rng(3).standard_normal((80, 3))
        q = cholesky_qr(np.hstack([base, base[:, :2]]))
        assert counters() == 1
        assert np.all(np.isfinite(q))

    @given(block_shapes, st.floats(1.0, 9.0), st.sampled_from(DTYPES),
           st.booleans(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_well_conditioned_blocks_take_one_pass(
        self, shape, cond, dtype, rotate, seed
    ):
        n, k = shape
        block = _block(n, k, cond, dtype, seed, rotate)
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_gram_calls(patch)
            q = cholesky_qr(block)
        assert len(calls) == 1
        assert _orthogonality_loss(q) <= 1e3 * _eps(dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_second_pass_beyond_one_pass_limit(self, gram_calls, counters, dtype):
        cond = 3.0 * math.sqrt(ONE_PASS_COND_SQ)
        q = cholesky_qr(_block(300, 8, cond, dtype, seed=5, rotate=True))
        assert len(gram_calls) == 2 and counters() == 0
        assert _orthogonality_loss(q) <= 1e3 * _eps(dtype)


class TestMemoryContract:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cond", (2.0, 500.0))
    def test_default_leaves_input_untouched(self, dtype, cond):
        block = _block(200, 7, cond, dtype, seed=1, rotate=True)
        snapshot = block.copy()
        for q in (cholesky_qr(block), orthonormalize(block, strategy="cholesky"),
                  orthonormalize(block, strategy="qr")):
            np.testing.assert_array_equal(block, snapshot)
            assert not np.shares_memory(q, block)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cond", (2.0, 500.0))
    def test_overwrite_returns_the_same_memory(self, dtype, cond):
        block = _block(200, 7, cond, dtype, seed=1, rotate=True)
        expected = cholesky_qr(block)
        q = cholesky_qr(block, overwrite=True)
        assert q.ctypes.data == block.ctypes.data and np.shares_memory(q, block)
        np.testing.assert_array_equal(q, expected)

    def test_overwrite_copies_what_it_cannot_reuse(self):
        block = _block(60, 4, 3.0, np.float64, seed=2, rotate=True)
        expected = cholesky_qr(block)
        read_only = block.copy()
        read_only.flags.writeable = False
        strided = np.repeat(block, 2, axis=1)[:, ::2]
        for unsuitable in (np.asfortranarray(block), read_only, strided):
            before = unsuitable.copy()
            q = cholesky_qr(unsuitable, overwrite=True)
            assert not np.shares_memory(q, unsuitable)
            np.testing.assert_array_equal(unsuitable, before)
            np.testing.assert_array_equal(q, expected)
        half = cholesky_qr(block.astype(np.float16), overwrite=True)
        assert half.dtype == np.float64
        assert _orthogonality_loss(half) <= 1e3 * _eps(np.float64)


class TestTypedErrors:
    @pytest.mark.parametrize("poison", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_finite_block_raises_and_is_not_a_fallback(
        self, counters, poison, dtype
    ):
        block = _block(50, 4, 2.0, dtype, seed=0, rotate=True)
        block[17, 2] = poison
        with pytest.raises(FactorizationError, match=r"\(50, 4\).*non-finite"):
            cholesky_qr(block)
        assert counters() == 0

    def test_finite_block_with_overflowing_gram_falls_back(self, counters):
        block = _block(30, 3, 2.0, np.float64, seed=0, rotate=True) * 1e200
        q = cholesky_qr(block)
        assert counters() == 1
        assert _orthogonality_loss(q) <= 1e3 * _eps(np.float64)

    @pytest.mark.parametrize("shape", ((5, 0), (0, 3), (0, 0)))
    def test_empty_block_comes_back_empty(self, counters, shape):
        q = cholesky_qr(np.empty(shape))
        assert q.shape == shape and counters() == 0

    def test_rejects_non_2d(self):
        with pytest.raises(FactorizationError):
            cholesky_qr(np.ones(4))

    @pytest.mark.parametrize("precision", ("double", "single"))
    def test_symmetric_rsvd_needs_a_square_operator(self, precision):
        matrix = np.random.default_rng(0).standard_normal((30, 20))
        with pytest.raises(FactorizationError, match="square"):
            randomized_svd(matrix, 4, symmetric=True, precision=precision)
        randomized_svd(matrix, 4, symmetric=False, precision=precision)


def _symmetric_operator(spectrum: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((spectrum.size, spectrum.size)))
    matrix = (basis * spectrum) @ basis.T
    return 0.5 * (matrix + matrix.T)


def _hmt_factor(rank: int, oversampling: int, size: int, power_iterations: int) -> float:
    """Halko–Martinsson–Tropp Cor. 10.10: ``E‖A − QQᵀA‖ ≤ factor · σ_{k+1}``."""
    k, p = rank, oversampling
    base = 1.0 + math.sqrt(k / (p - 1)) + math.e * math.sqrt(k + p) / p * math.sqrt(
        size - k
    )
    return base ** (1.0 / (2 * power_iterations + 1))


SPECTRA = {
    "fast": lambda n: 0.5 ** np.arange(n),
    "slow": lambda n: 1.0 / np.sqrt(1.0 + np.arange(n)),
}


class TestRandomizedSvdAccuracy:
    RANK, OVERSAMPLING, POWER, SIZE = 8, 10, 2, 160

    @pytest.mark.parametrize("decay", sorted(SPECTRA))
    @pytest.mark.parametrize("symmetric", (True, False))
    @pytest.mark.parametrize("precision", ("double", "single"))
    def test_inside_the_stated_bound(self, decay, symmetric, precision):
        spectrum = SPECTRA[decay](self.SIZE)
        matrix = _symmetric_operator(spectrum, seed=4)
        u, sigma, vt = randomized_svd(
            matrix, self.RANK, oversampling=self.OVERSAMPLING,
            power_iterations=self.POWER, seed=9, precision=precision,
            symmetric=symmetric,
        )
        u_ref, sigma_ref, _ = exact_reference_svd(matrix, self.RANK)
        tail = float(spectrum[self.RANK])
        # Range-finder error plus the rank truncation (HMT Thm 9.3), plus
        # what the working precision alone can resolve.
        bound = (1.0 + _hmt_factor(self.RANK, self.OVERSAMPLING, self.SIZE,
                                   self.POWER)) * tail
        floor = 1e2 * _eps(u.dtype) * float(spectrum[0])
        approx = (u.astype(np.float64) * sigma) @ vt.astype(np.float64)
        assert np.linalg.norm(matrix - approx, 2) <= bound + floor
        assert np.max(np.abs(sigma - sigma_ref)) <= bound + floor
        assert _orthogonality_loss(u) <= 1e3 * _eps(u.dtype)
        # Subspace iteration converges at rate (σ_{l+1}/σ_k)^{2q+1}, l the
        # sketch width, times the oversampling constant; rounding moves the
        # subspace by eps·σ_1 over the gap.
        sketch = self.RANK + self.OVERSAMPLING
        rate = float(spectrum[sketch] / spectrum[self.RANK - 1]) ** (2 * self.POWER + 1)
        constant = 1.0 + math.sqrt(self.RANK / (self.OVERSAMPLING - 1))
        gap = float(spectrum[self.RANK - 1] - spectrum[self.RANK])
        u64 = u.astype(np.float64)
        sine = float(np.linalg.norm(u64 - u_ref @ (u_ref.T @ u64), 2))
        assert sine <= constant * rate + 1e3 * _eps(u.dtype) * float(spectrum[0]) / gap

    @pytest.mark.parametrize("precision,tolerance",
                             (("double", 1e-10), ("single", 1e-4)))
    def test_symmetric_flag_changes_nothing_on_a_symmetric_operator(
        self, precision, tolerance
    ):
        half = sp.random(300, 300, density=0.04, random_state=6, format="csr")
        matrix = (half + half.T).tocsr()
        kwargs = dict(seed=3, precision=precision, workers=2)
        flagged = randomized_svd(matrix, 12, symmetric=True, **kwargs)
        general = randomized_svd(matrix, 12, symmetric=False, **kwargs)
        scale = float(general[1][0])
        np.testing.assert_allclose(flagged[1], general[1], atol=tolerance * scale)
        rebuilt = [
            (u.astype(np.float64) * s) @ vt.astype(np.float64)
            for u, s, vt in (flagged, general)
        ]
        np.testing.assert_allclose(rebuilt[0], rebuilt[1], atol=tolerance * scale)


def _align_signs(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    signs = np.sign(np.sum(candidate * reference, axis=0))
    signs[signs == 0] = 1.0
    return candidate * signs[None, :]


class TestRescaleAgainstOracle:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        # Well-separated singular values, so columns are unique up to sign.
        full = rng.standard_normal((120, 6)) * (2.0 ** -np.arange(6))
        zero_rows = full.copy()
        zero_rows[[0, 17, 119]] = 0.0
        return {
            "full_rank": full,
            "duplicated_columns": np.hstack([full, full[:, :2]]),
            "zero_rows": zero_rows,
        }

    @pytest.mark.parametrize("case", ("full_rank", "duplicated_columns", "zero_rows"))
    def test_default_equals_svd_oracle_up_to_sign(self, case):
        matrix = self._inputs()[case]
        oracle = rescale_embedding(matrix, method="svd")
        default = rescale_embedding(matrix)
        assert default.shape == oracle.shape and default.dtype == np.float64
        np.testing.assert_allclose(
            _align_signs(default, oracle), oracle, atol=1e-6 * np.abs(oracle).max()
        )
        np.testing.assert_array_equal(
            default, rescale_embedding(matrix, method="gram")
        )
        if case == "zero_rows":
            assert not default[[0, 17, 119]].any()
        if case == "duplicated_columns":  # numerically null directions → 0
            assert not default[:, -2:].any()

    def test_truncated_dimension(self):
        matrix = self._inputs()["full_rank"]
        oracle = rescale_embedding(matrix, 3, method="svd")
        np.testing.assert_allclose(
            _align_signs(rescale_embedding(matrix, 3), oracle), oracle, atol=1e-9
        )


class TestDeterminism:
    @pytest.mark.parametrize("symmetric", (True, None))
    @pytest.mark.parametrize("precision", ("double", "single"))
    def test_consecutive_calls_are_bit_identical(self, symmetric, precision):
        """No state leaks between calls through the reused buffers."""
        half = sp.random(250, 250, density=0.05, random_state=2, format="csr")
        matrix = (half + half.T).tocsr()
        kwargs = dict(seed=21, precision=precision, symmetric=symmetric, workers=2)
        first = randomized_svd(matrix, 10, **kwargs)
        randomized_svd(matrix, 7, seed=5, precision=precision)  # unrelated call
        second = randomized_svd(matrix, 10, **kwargs)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_rsvd_does_not_touch_a_dense_operand(self):
        matrix = _symmetric_operator(SPECTRA["slow"](60), seed=1)
        snapshot = matrix.copy()
        randomized_svd(matrix, 5, seed=0, symmetric=True)
        np.testing.assert_array_equal(matrix, snapshot)

    def test_offloaded_propagation_returns_plain_in_ram_array(self, tmp_path):
        graph, _ = dcsbm_graph(150, 3, avg_degree=10, mixing=0.1, seed=0)
        x = np.random.default_rng(4).standard_normal((graph.num_vertices, 8))
        in_ram = spectral_propagation(graph, x, order=6)
        offloaded = spectral_propagation(
            graph, x, order=6, offload_dir=str(tmp_path)
        )
        assert type(offloaded) is np.ndarray and type(in_ram) is np.ndarray
        assert not isinstance(offloaded.base, np.memmap)
        np.testing.assert_array_equal(offloaded, in_ram)
        assert not list(tmp_path.iterdir())  # spill files are unlinked
