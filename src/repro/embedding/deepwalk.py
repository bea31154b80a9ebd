"""DeepWalk trained by SGD — the GraphVite stand-in.

GraphVite [41] is a CPU-GPU system running DeepWalk/LINE-style skip-gram with
negative sampling over sampled random walks; the paper uses it as the
quality/efficiency comparator on Friendster and Hyperlink-PLD.  Without a
GPU, we reproduce the *learning rule* — skip-gram with negative sampling over
walk windows — with mini-batched, vectorized numpy SGD.  This keeps the
comparison meaningful: both systems see the same objective, and the paper's
point (matrix factorization reaches better quality per unit compute than SGD)
is exercised directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import telemetry
from repro.embedding.base import (
    EmbeddingResult,
    PipelineContext,
    PipelineSpec,
    run_pipeline,
)
from repro.errors import FactorizationError, SamplingError
from repro.graph import CSRGraph
from repro.graph.walks import random_walk_matrix_sample
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class DeepWalkSGDParams:
    """Skip-gram-with-negative-sampling hyper-parameters.

    ``walks_per_vertex × walk_length`` controls the corpus size;
    ``epochs`` full passes of SGD are made over the generated pairs.
    """

    dimension: int = 128
    walk_length: int = 20
    walks_per_vertex: int = 10
    window: int = 5
    negatives: int = 5
    learning_rate: float = 0.05
    epochs: int = 2
    batch_size: int = 4096


def _walks_to_pairs(
    walks: np.ndarray, window: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand walk rows into (center, context) pairs within ``window``."""
    centers = []
    contexts = []
    length = walks.shape[1]
    for offset in range(1, window + 1):
        if offset >= length:
            break
        centers.append(walks[:, :-offset].ravel())
        contexts.append(walks[:, offset:].ravel())
    center = np.concatenate(centers)
    context = np.concatenate(contexts)
    order = rng.permutation(center.size)
    return center[order], context[order]


def _deepwalk_body(ctx: PipelineContext):
    graph, params, rng = ctx.graph, ctx.params, ctx.rng
    n = graph.num_vertices
    if params.window < 1:
        raise SamplingError(f"window must be >= 1, got {params.window}")
    if params.walk_length < 1:
        raise SamplingError(f"walk_length must be >= 1, got {params.walk_length}")
    if params.batch_size < 1:
        raise SamplingError(f"batch_size must be >= 1, got {params.batch_size}")
    if params.learning_rate <= 0:
        raise FactorizationError(
            f"learning_rate must be > 0, got {params.learning_rate}"
        )

    with telemetry.stage("walks") as stage:
        walks = random_walk_matrix_sample(
            graph, params.walk_length, params.walks_per_vertex, rng
        )
        center, context = _walks_to_pairs(walks, params.window, rng)
        stage.set_attribute("pairs", int(center.size))

    with telemetry.stage("sgd"):
        degrees = graph.degrees().astype(np.float64)
        noise = np.maximum(degrees, 1.0) ** 0.75
        noise /= noise.sum()
        scale = 0.5 / params.dimension
        w_in = (rng.random((n, params.dimension)) - 0.5) * scale
        w_out = np.zeros((n, params.dimension))
        # Per-row Adagrad accumulators: batched scatter-adds make a vertex's
        # effective step proportional to its batch multiplicity, which blows
        # up plain SGD on small graphs; Adagrad self-normalizes it away.
        ada_in = np.full(n, 1e-8)
        ada_out = np.full(n, 1e-8)

        for _ in range(params.epochs):
            for start in range(0, center.size, params.batch_size):
                c = center[start : start + params.batch_size]
                o = context[start : start + params.batch_size]
                neg = rng.choice(n, size=(c.size, params.negatives), p=noise)
                _sgd_step(w_in, w_out, ada_in, ada_out, c, o, neg, params.learning_rate)

    return w_in


DEEPWALK_PIPELINE = PipelineSpec(name="deepwalk", body=_deepwalk_body)


def deepwalk_sgd_embedding(
    graph: CSRGraph,
    params: DeepWalkSGDParams = DeepWalkSGDParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Train DeepWalk with vectorized negative-sampling SGD.

    Uses the standard two-matrix parameterization (input/output vectors) with
    a degree^0.75 negative-sampling distribution and a linearly decaying
    learning rate; the input matrix is returned as the embedding.  Result
    method name is the canonical ``"deepwalk"``; ``"graphvite"`` remains a
    registered alias.
    """
    return run_pipeline(graph, DEEPWALK_PIPELINE, params, seed)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _sgd_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    ada_in: np.ndarray,
    ada_out: np.ndarray,
    centers: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One mini-batch of skip-gram negative-sampling updates (in place).

    Collisions (the same vertex appearing twice in a batch) are resolved by
    ``np.add.at`` scatter adds — Hogwild-style lock-free semantics, the numpy
    analog of GraphVite's asynchronous updates — with per-row Adagrad step
    sizes keeping the accumulated updates bounded.
    """
    d = w_in.shape[1]
    v_c = w_in[centers]  # (B, d)
    v_p = w_out[positives]  # (B, d)
    v_n = w_out[negatives]  # (B, K, d)

    pos_score = _sigmoid(np.einsum("bd,bd->b", v_c, v_p))
    neg_score = _sigmoid(np.einsum("bd,bkd->bk", v_c, v_n))

    g_pos = (1.0 - pos_score)[:, None]  # ∂loss/∂(v_c·v_p)
    g_neg = -neg_score[:, :, None]

    grad_c = g_pos * v_p + np.einsum("bk,bkd->bd", g_neg[:, :, 0], v_n)
    grad_p = g_pos * v_c
    grad_n = g_neg * v_c[:, None, :]

    np.add.at(ada_in, centers, np.einsum("bd,bd->b", grad_c, grad_c) / d)
    step_c = (lr / np.sqrt(ada_in[centers]))[:, None] * grad_c
    np.add.at(w_in, centers, step_c)

    out_rows = np.concatenate([positives, negatives.ravel()])
    out_grads = np.concatenate([grad_p, grad_n.reshape(-1, d)], axis=0)
    np.add.at(ada_out, out_rows, np.einsum("bd,bd->b", out_grads, out_grads) / d)
    steps = (lr / np.sqrt(ada_out[out_rows]))[:, None] * out_grads
    np.add.at(w_out, out_rows, steps)
