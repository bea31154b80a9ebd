r"""Exact spectral quantities for auditing sparsifier quality.

Everything here is dense / pseudo-inverse based and intended for small
graphs: the point is *verification* of the theory the paper leans on, not
scale.

* :func:`effective_resistances` — ``R_uv = (e_u - e_v)ᵀ L⁺ (e_u - e_v)``,
  the quantity Theorem 3.2 bounds by degrees;
* :func:`lovasz_resistance_bounds` — both sides of Lovász's inequality
  ``(1/2)(1/d_u + 1/d_v) ≤ R_uv ≤ (1/(1-λ₂))(1/d_u + 1/d_v)``;
* :func:`quadratic_form_ratio` / :func:`spectral_approximation_factor` —
  how far ``xᵀL_H x`` strays from ``xᵀL_G x`` over test directions /
  eigen-directions, i.e. the ε of an ε-spectral sparsifier.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import EvaluationError
from repro.graph import CSRGraph
from repro.graph.stats import spectral_gap

DENSE_LIMIT = 2_000


def laplacian_matrix(graph: CSRGraph) -> sp.csr_matrix:
    """Combinatorial Laplacian ``L = D - A`` (weighted)."""
    adjacency = graph.adjacency()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sp.diags(degrees) - adjacency).tocsr()


def effective_resistances(
    graph: CSRGraph, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Exact effective resistances between the given vertex pairs.

    Requires a connected graph with at most ``DENSE_LIMIT`` vertices (uses
    the dense pseudo-inverse of ``L``).
    """
    n = graph.num_vertices
    if n > DENSE_LIMIT:
        raise EvaluationError(
            f"exact resistances limited to {DENSE_LIMIT} vertices"
        )
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise EvaluationError("sources/targets must be parallel")
    lap = laplacian_matrix(graph).toarray()
    pinv = np.linalg.pinv(lap, hermitian=True)
    diag = np.diag(pinv)
    return diag[sources] + diag[targets] - 2.0 * pinv[sources, targets]


def lovasz_resistance_bounds(
    graph: CSRGraph, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Theorem 3.2's lower and upper bounds for the given pairs.

    Returns ``(lower, upper)`` with
    ``lower = (1/2)(1/d_u + 1/d_v)`` and
    ``upper = (1/(1-λ₂))(1/d_u + 1/d_v)``.
    """
    degrees = graph.weighted_degrees()
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if np.any(degrees[sources] <= 0) or np.any(degrees[targets] <= 0):
        raise EvaluationError("bounds need positive endpoint degrees")
    base = 1.0 / degrees[sources] + 1.0 / degrees[targets]
    gap = spectral_gap(graph)
    if gap <= 0:
        raise EvaluationError("upper bound needs a positive spectral gap")
    return 0.5 * base, base / gap


def quadratic_form_ratio(
    original: CSRGraph,
    sparsifier_laplacian: sp.spmatrix,
    directions: np.ndarray,
) -> np.ndarray:
    """``xᵀ L_H x / xᵀ L_G x`` for each column direction ``x``.

    Directions (columns of ``directions``) are projected off the all-ones
    kernel first; directions with negligible ``xᵀL_G x`` are skipped (nan).
    """
    lap_g = laplacian_matrix(original)
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[0] != original.num_vertices:
        directions = directions.T
    if directions.shape[0] != original.num_vertices:
        raise EvaluationError("directions must have n rows")
    centered = directions - directions.mean(axis=0, keepdims=True)
    ratios = np.full(centered.shape[1], np.nan)
    for j in range(centered.shape[1]):
        x = centered[:, j]
        denominator = float(x @ (lap_g @ x))
        if denominator < 1e-12:
            continue
        ratios[j] = float(x @ (sparsifier_laplacian @ x)) / denominator
    return ratios


def exact_resistance_probabilities(
    graph: CSRGraph, *, constant: Optional[float] = None
) -> np.ndarray:
    """Keep probabilities from *exact* effective resistances.

    The theoretically ideal sampler §3.2 mentions:
    ``p_e = min(1, C·A_uv·R_uv)`` — computing ``R_uv`` is the open problem
    the degree bound sidesteps.  Exact (pseudo-inverse) resistances make
    this feasible on small graphs, giving a gold standard the degree-based
    probabilities can be compared against (see
    ``tests/test_analysis_spectral.py::TestExactVsDegreeSampling``).
    Returned in the same ``u < v`` edge order as
    :func:`repro.sparsifier.downsampling.graph_downsampling_probabilities`.
    """
    from repro.sparsifier.downsampling import default_constant

    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    weights = graph.weights[mask] if graph.weights is not None else np.ones(src.size)
    if constant is None:
        constant = default_constant(graph.num_vertices)
    resistances = effective_resistances(graph, src, dst)
    return np.minimum(1.0, constant * weights * resistances)


def spectral_approximation_factor(
    original: CSRGraph,
    sparsifier_laplacian: sp.spmatrix,
    *,
    num_directions: int = 32,
    seed: int = 0,
) -> float:
    """Worst observed ``max(r, 1/r) - 1`` over random + eigen directions.

    A value ``ε`` certifies the sparsifier behaved like a ``(1±ε)``-spectral
    approximation on the tested directions (a lower bound on the true ε).
    """
    n = original.num_vertices
    rng = np.random.default_rng(seed)
    directions = [rng.standard_normal((n, num_directions))]
    if n <= DENSE_LIMIT:
        # Add the true eigen-directions of L_G — the adversarial ones.
        lap = laplacian_matrix(original).toarray()
        _, vecs = np.linalg.eigh(lap)
        directions.append(vecs[:, 1 : min(n, 1 + num_directions)])
    stacked = np.hstack(directions)
    ratios = quadratic_form_ratio(original, sparsifier_laplacian, stacked)
    ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
    if ratios.size == 0:
        raise EvaluationError("no testable directions (graph disconnected?)")
    worst = np.maximum(ratios, 1.0 / ratios).max()
    return float(worst - 1.0)
