"""Nearest-neighbor retrieval evaluation (the intro's recommendation loop).

The paper motivates embeddings through recommendation systems (Alibaba item
recommendation, LinkedIn talent search): downstream consumers retrieve a
node's nearest embedding neighbors and expect actual graph neighbors among
them.  This module scores that use case directly: for each query vertex,
rank all other vertices by cosine similarity and measure how many true graph
neighbors land in the top ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.graph import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class RetrievalResult:
    """Neighbor-retrieval quality at one ``k``."""

    k: int
    recall: float
    precision: float
    num_queries: int

    def as_row(self) -> dict:
        """Table-friendly dict view."""
        return {
            "k": self.k,
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 4),
            "queries": self.num_queries,
        }


def neighbor_retrieval(
    embeddings: np.ndarray,
    graph: CSRGraph,
    k: int = 10,
    *,
    num_queries: int = 200,
    seed: SeedLike = None,
) -> RetrievalResult:
    """Recall/precision of true graph neighbors among top-``k`` retrieved.

    Queries are sampled among vertices with at least one neighbor; the query
    vertex itself is excluded from its candidate list.  Recall is averaged
    per query as ``|top-k ∩ neighbors| / min(k, degree)`` (so a full-recall
    score of 1.0 is attainable for every query); precision is
    ``|top-k ∩ neighbors| / k``.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = graph.num_vertices
    if embeddings.shape[0] != n:
        raise EvaluationError(
            f"embeddings rows {embeddings.shape[0]} != graph vertices {n}"
        )
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    if k >= n:
        raise EvaluationError(f"k={k} must be smaller than n={n}")
    rng = ensure_rng(seed)
    eligible = np.flatnonzero(graph.degrees() > 0)
    if eligible.size == 0:
        raise EvaluationError("graph has no edges to retrieve")
    queries = rng.choice(eligible, size=min(num_queries, eligible.size),
                         replace=False)

    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = embeddings / norms

    recalls = []
    precisions = []
    for q in queries:
        scores = unit @ unit[q]
        scores[q] = -np.inf
        top = np.argpartition(-scores, k)[:k]
        neighbors = set(graph.neighbors(int(q)).tolist())
        hits = sum(1 for v in top if int(v) in neighbors)
        recalls.append(hits / min(k, len(neighbors)))
        precisions.append(hits / k)
    return RetrievalResult(
        k=k,
        recall=float(np.mean(recalls)),
        precision=float(np.mean(precisions)),
        num_queries=int(queries.size),
    )


def retrieval_sweep(
    embeddings: np.ndarray,
    graph: CSRGraph,
    ks: Sequence[int] = (1, 5, 10, 50),
    *,
    num_queries: int = 200,
    seed: SeedLike = None,
) -> list:
    """Retrieval quality across several ``k`` (shares the query sample)."""
    rng = ensure_rng(seed)
    state = rng.integers(0, 2**31)
    return [
        neighbor_retrieval(
            embeddings, graph, k, num_queries=num_queries, seed=int(state)
        )
        for k in ks
    ]
