"""Link-prediction evaluation (PBG and GraphVite protocols, paper §5.1/5.3).

PBG protocol (LiveJournal, ClueWeb, Hyperlink2014): hold out a fraction of
edges from the training graph; after embedding, rank each held-out positive
edge's dot-product score against ``num_negatives`` corrupted edges (random
tail replacement); report MR, MRR and HITS@K.

GraphVite protocol (Hyperlink-PLD): score held-out positives against an equal
number of random non-edges and report ROC AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.eval.metrics import auc_score, ranking_positions, ranking_report
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class LinkPredictionResult:
    """Ranking metrics over the held-out positives."""

    mean_rank: float
    mrr: float
    hits: Dict[int, float]
    num_positives: int
    num_negatives: int

    def as_row(self) -> dict:
        """Table-friendly dict view."""
        row = {"MR": round(self.mean_rank, 2), "MRR": round(self.mrr, 4)}
        for k, v in sorted(self.hits.items()):
            row[f"HITS@{k}"] = round(v, 4)
        return row


def train_test_split_edges(
    graph: CSRGraph,
    test_fraction: float,
    seed: SeedLike = None,
    *,
    min_test: int = 1,
) -> Tuple[CSRGraph, np.ndarray, np.ndarray]:
    """Randomly exclude ``test_fraction`` of edges for evaluation (PBG setup).

    Returns ``(train_graph, test_sources, test_targets)``.  The paper uses
    minuscule fractions (0.00001%) on the very large graphs; we guard with
    ``min_test`` so scaled-down runs still get a non-empty test set.
    """
    if not 0.0 < test_fraction < 1.0:
        raise EvaluationError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    rng = ensure_rng(seed)
    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]
    wts = graph.weights[mask] if graph.weights is not None else None
    m = src.size
    if m < 2:
        raise EvaluationError("graph too small to split")
    test_size = min(m - 1, max(min_test, int(round(test_fraction * m))))
    test_idx = rng.choice(m, size=test_size, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[test_idx] = False
    train = from_edges(
        src[keep],
        dst[keep],
        wts[keep] if wts is not None else None,
        num_vertices=graph.num_vertices,
        symmetrize=True,
    )
    return train, src[test_idx], dst[test_idx]


def evaluate_link_prediction(
    embeddings: np.ndarray,
    test_sources: np.ndarray,
    test_targets: np.ndarray,
    *,
    num_negatives: int = 100,
    ks: Sequence[int] = (1, 10, 50),
    seed: SeedLike = None,
) -> LinkPredictionResult:
    """Rank each positive against ``num_negatives`` corrupted tails.

    Corruption replaces the target endpoint with a uniform random vertex
    (PBG's default negative sampler).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    test_sources = np.asarray(test_sources, dtype=np.int64)
    test_targets = np.asarray(test_targets, dtype=np.int64)
    if test_sources.size == 0:
        raise EvaluationError("empty test set")
    if test_sources.shape != test_targets.shape:
        raise EvaluationError("test_sources/test_targets must be parallel")
    if num_negatives < 1:
        raise EvaluationError(f"num_negatives must be >= 1, got {num_negatives}")
    n = embeddings.shape[0]
    rng = ensure_rng(seed)

    positive = np.einsum(
        "ij,ij->i", embeddings[test_sources], embeddings[test_targets]
    )
    corrupted = rng.integers(0, n, size=(test_sources.size, num_negatives))
    negative = np.einsum(
        "ij,ikj->ik", embeddings[test_sources], embeddings[corrupted]
    )
    ranks = ranking_positions(positive, negative)
    report = ranking_report(ranks, ks)
    return LinkPredictionResult(
        mean_rank=report["MR"],
        mrr=report["MRR"],
        hits={k: report[f"HITS@{k}"] for k in ks},
        num_positives=test_sources.size,
        num_negatives=num_negatives,
    )


def sample_non_edges(
    graph: CSRGraph, count: int, seed: SeedLike = None, *, max_tries: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Rejection-sample ``count`` vertex pairs that are not edges (u != v)."""
    if count < 1:
        raise EvaluationError(f"count must be >= 1, got {count}")
    rng = ensure_rng(seed)
    n = graph.num_vertices
    out_u = np.empty(count, dtype=np.int64)
    out_v = np.empty(count, dtype=np.int64)
    filled = 0
    for _ in range(max_tries):
        need = count - filled
        if need == 0:
            break
        u = rng.integers(0, n, size=2 * need)
        v = rng.integers(0, n, size=2 * need)
        ok = u != v
        u, v = u[ok], v[ok]
        is_edge = np.fromiter(
            (graph.has_edge(int(a), int(b)) for a, b in zip(u, v)),
            dtype=bool,
            count=u.size,
        )
        u, v = u[~is_edge], v[~is_edge]
        take = min(need, u.size)
        out_u[filled : filled + take] = u[:take]
        out_v[filled : filled + take] = v[:take]
        filled += take
    if filled < count:
        raise EvaluationError("could not sample enough non-edges (graph too dense?)")
    return out_u, out_v


def link_prediction_auc(
    embeddings: np.ndarray,
    graph: CSRGraph,
    test_sources: np.ndarray,
    test_targets: np.ndarray,
    seed: SeedLike = None,
) -> float:
    """GraphVite's AUC protocol: positives vs an equal number of non-edges."""
    rng = ensure_rng(seed)
    neg_u, neg_v = sample_non_edges(graph, len(test_sources), rng)
    pos = np.einsum("ij,ij->i", embeddings[test_sources], embeddings[test_targets])
    neg = np.einsum("ij,ij->i", embeddings[neg_u], embeddings[neg_v])
    labels = np.concatenate([np.ones(pos.size, bool), np.zeros(neg.size, bool)])
    return auc_score(labels, np.concatenate([pos, neg]))
