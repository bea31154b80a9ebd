"""Graph statistics for the dataset tables: the summary rows of Table 3."""

from __future__ import annotations

from dataclasses import dataclass

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
