"""node2vec [7] — biased second-order random walks + skip-gram SGD.

The paper (§3.1) counts node2vec in the NetMF family: its stationary walk
matrix is also a polynomial of ``A`` and ``D``.  We implement the original
algorithm: walks biased by the return parameter ``p`` and in-out parameter
``q`` (per-step probabilities ``1/p`` for returning to the previous vertex,
``1`` for triangle-closing moves, ``1/q`` for outward moves), fed to the
same Adagrad skip-gram trainer as the DeepWalk baseline.

Second-order walks cannot be advanced with a single degree-modulo draw, so
the walker keeps ``(previous, current)`` state and rejects/accepts proposals
(rejection sampling — the standard trick that avoids materializing alias
tables per edge pair, and vectorizes well).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro import telemetry
from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.embedding.deepwalk import DeepWalkSGDParams, _sgd_step, _walks_to_pairs
from repro.errors import SamplingError
from repro.graph import GraphLike
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Node2VecParams:
    """node2vec hyper-parameters (``p``/``q`` as in the original paper)."""

    dimension: int = 128
    walk_length: int = 20
    walks_per_vertex: int = 10
    window: int = 5
    negatives: int = 5
    learning_rate: float = 0.05
    epochs: int = 2
    batch_size: int = 4096
    return_p: float = 1.0
    in_out_q: float = 1.0


def biased_walks(
    graph: GraphLike,
    walk_length: int,
    walks_per_vertex: int,
    *,
    return_p: float = 1.0,
    in_out_q: float = 1.0,
    seed: SeedLike = None,
    max_rejections: int = 16,
) -> np.ndarray:
    """Sample node2vec's second-order walks, vectorized with rejection.

    Proposal: a uniform neighbor of the current vertex.  Acceptance weight:
    ``1/p`` if the proposal returns to the previous vertex, ``1`` if the
    proposal neighbors the previous vertex (distance 1), else ``1/q``.
    Normalizing by ``max(1/p, 1, 1/q)`` makes it a valid rejection sampler.
    Walkers that exhaust ``max_rejections`` keep the last proposal (bias is
    negligible for reasonable p/q and keeps the sampler total).
    """
    if walk_length < 1:
        raise SamplingError(f"walk_length must be >= 1, got {walk_length}")
    if walks_per_vertex < 1:
        raise SamplingError(
            f"walks_per_vertex must be >= 1, got {walks_per_vertex}"
        )
    if return_p <= 0 or in_out_q <= 0:
        raise SamplingError("p and q must be positive")
    graph = graph.flat()
    rng = ensure_rng(seed)
    n = graph.num_vertices
    degrees = graph.degrees()
    ceiling = max(1.0 / return_p, 1.0, 1.0 / in_out_q)

    starts = np.tile(np.arange(n, dtype=np.int64), walks_per_vertex)
    walks = np.empty((starts.size, walk_length + 1), dtype=np.int64)
    walks[:, 0] = starts

    # First step: uniform (no previous vertex yet).
    current = starts.copy()
    movable = degrees[current] > 0
    if movable.any():
        cur = current[movable]
        idx = (rng.integers(0, 2**32, size=cur.size, dtype=np.uint64)
               % degrees[cur].astype(np.uint64)).astype(np.int64)
        current[movable] = graph.ith_neighbors(cur, idx)
    walks[:, 1] = current
    previous = starts.copy()

    def is_edge_bulk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(a.size, dtype=bool)
        for i in range(a.size):
            out[i] = graph.has_edge(int(a[i]), int(b[i]))
        return out

    for t in range(2, walk_length + 1):
        proposal = current.copy()
        undecided = degrees[current] > 0
        for _ in range(max_rejections):
            if not undecided.any():
                break
            active = np.flatnonzero(undecided)
            cur = current[active]
            idx = (rng.integers(0, 2**32, size=cur.size, dtype=np.uint64)
                   % degrees[cur].astype(np.uint64)).astype(np.int64)
            cand = graph.ith_neighbors(cur, idx)
            prev = previous[active]
            weight = np.where(
                cand == prev,
                1.0 / return_p,
                np.where(is_edge_bulk(cand, prev), 1.0, 1.0 / in_out_q),
            )
            accept = rng.random(cur.size) < weight / ceiling
            proposal[active] = cand  # remember the latest proposal
            undecided[active[accept]] = False
        previous = current
        current = np.where(degrees[current] > 0, proposal, current)
        walks[:, t] = current
    return walks


def _node2vec_body(ctx: PipelineContext):
    graph, params, rng = ctx.graph, ctx.params, ctx.rng
    n = graph.num_vertices
    if params.window < 1:
        raise SamplingError(f"window must be >= 1, got {params.window}")

    with telemetry.stage("walks"):
        walks = biased_walks(
            graph,
            params.walk_length,
            params.walks_per_vertex,
            return_p=params.return_p,
            in_out_q=params.in_out_q,
            seed=rng,
        )
        center, context = _walks_to_pairs(walks, params.window, rng)

    with telemetry.stage("sgd"):
        degrees = graph.degrees().astype(np.float64)
        noise = np.maximum(degrees, 1.0) ** 0.75
        noise /= noise.sum()
        scale = 0.5 / params.dimension
        w_in = (rng.random((n, params.dimension)) - 0.5) * scale
        w_out = np.zeros((n, params.dimension))
        ada_in = np.full(n, 1e-8)
        ada_out = np.full(n, 1e-8)
        for _ in range(params.epochs):
            for start in range(0, center.size, params.batch_size):
                c = center[start : start + params.batch_size]
                o = context[start : start + params.batch_size]
                neg = rng.choice(n, size=(c.size, params.negatives), p=noise)
                _sgd_step(w_in, w_out, ada_in, ada_out, c, o, neg,
                          params.learning_rate)

    ctx.info.update(
        {
            "pairs": int(center.size),
            "p": params.return_p,
            "q": params.in_out_q,
        }
    )
    return w_in


NODE2VEC_PIPELINE = PipelineSpec(name="node2vec", body=_node2vec_body)


def node2vec_embedding(
    graph: GraphLike,
    params: Node2VecParams = Node2VecParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Train node2vec: biased walks, then skip-gram with negative sampling."""
    return run_pipeline(graph, NODE2VEC_PIPELINE, params, seed)
