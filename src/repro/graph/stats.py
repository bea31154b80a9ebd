"""Graph statistics used by the paper's analysis and the dataset tables.

Includes the *spectral gap* ``1 - λ₂`` of the normalized Laplacian, which
Theorem 3.2 ties to the quality of the degree-based effective-resistance
bound (the paper cites BlogCatalog's gap of ≈0.43), plus the summary rows of
Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphSummary:
    """One Table-3-style row of dataset statistics."""

    num_vertices: int
    num_edges: int
    volume: float
    max_degree: int
    mean_degree: float
    density: float

    def as_dict(self) -> dict:
        """Plain-dict view for table printers."""
        return {
            "|V|": self.num_vertices,
            "|E|": self.num_edges,
            "vol(G)": self.volume,
            "max_deg": self.max_degree,
            "mean_deg": round(self.mean_degree, 3),
            "density": self.density,
        }


def summarize(graph: CSRGraph) -> GraphSummary:
    """Compute the dataset-statistics row for ``graph``."""
    n = graph.num_vertices
    degrees = graph.degrees()
    max_degree = int(degrees.max()) if n else 0
    mean_degree = float(degrees.mean()) if n else 0.0
    density = (2.0 * graph.num_edges / (n * (n - 1))) if n > 1 else 0.0
    return GraphSummary(
        num_vertices=n,
        num_edges=graph.num_edges,
        volume=graph.volume,
        max_degree=max_degree,
        mean_degree=mean_degree,
        density=density,
    )


def normalized_laplacian(graph: CSRGraph) -> sp.csr_matrix:
    """Random-walk normalized Laplacian ``L = I - D⁻¹A`` (paper Table 1).

    Zero-degree vertices get an identity row (their Laplacian row is just 1).
    """
    adjacency = graph.adjacency()
    n = graph.num_vertices
    degrees = graph.weighted_degrees()
    inv = np.zeros(n)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    d_inv = sp.diags(inv)
    return (sp.eye(n, format="csr") - d_inv @ adjacency).tocsr()


def spectral_gap(graph: CSRGraph, *, tol: float = 1e-6) -> float:
    """``1 - λ₂`` where λ₂ is the second-largest eigenvalue of ``D⁻¹A``.

    Computed on the symmetric normalization ``D^{-1/2} A D^{-1/2}`` (same
    spectrum as ``D⁻¹A``).  Requires a connected graph for the textbook
    interpretation; disconnected graphs return ~0.
    """
    n = graph.num_vertices
    if n < 3:
        return 1.0
    adjacency = graph.adjacency()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    d = sp.diags(inv_sqrt)
    normalized = d @ adjacency @ d
    vals = spla.eigsh(normalized, k=2, which="LA", tol=tol, return_eigenvectors=False)
    lambda2 = float(np.min(vals))
    return 1.0 - lambda2


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of vertices of degree ``d``."""
    degrees = graph.degrees()
    if degrees.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degrees)
