"""Linear algebra kernels: randomized SVD (paper Algo 3), ProNE's Chebyshev
spectral propagation, and the shared parallel single-precision kernel layer
(:mod:`repro.linalg.kernels` — the MKL stand-in)."""

from repro.linalg.kernels import (
    cholesky_qr,
    gram,
    gram_rescale,
    orthonormalize,
    resolve_precision,
    spmm,
)
from repro.linalg.randomized_svd import embedding_from_svd, factorize, randomized_svd
from repro.linalg.spectral import (
    spectral_propagation,
    chebyshev_gaussian_filter,
    propagation_operator,
    rescale_embedding,
)
from repro.linalg.operators import polynomial_operator

__all__ = [
    "randomized_svd",
    "embedding_from_svd",
    "factorize",
    "spectral_propagation",
    "chebyshev_gaussian_filter",
    "propagation_operator",
    "rescale_embedding",
    "polynomial_operator",
    "spmm",
    "gram",
    "gram_rescale",
    "cholesky_qr",
    "orthonormalize",
    "resolve_precision",
]
