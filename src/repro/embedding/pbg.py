"""PyTorch-BigGraph stand-in: edge-level embedding with a ranking loss.

PBG [15] trains shallow node embeddings by SGD over edges, scoring pairs by
dot product and minimizing a margin/softmax ranking loss against sampled
corrupted edges, sharded across a parameter server.  Our single-machine
reproduction keeps the objective — logistic loss on true edges vs. uniformly
corrupted ones (PBG's "uniform negative sampling" default) — trained with the
same vectorized mini-batch machinery as the DeepWalk baseline.  It is the
comparator for experiment E1 (LiveJournal link prediction).
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
from repro.graph import CSRGraph
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class PBGParams:
    """PBG-style trainer hyper-parameters.

    PBG optimizes with Adagrad (per-parameter adaptive step sizes); we keep
    that choice — plain SGD on the ranking loss is unstable at useful
    learning rates.
    """

    dimension: int = 128
    epochs: int = 10
    negatives: int = 10
    learning_rate: float = 0.1
    batch_size: int = 8192


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _pbg_body(ctx: PipelineContext):
    graph, params, rng = ctx.graph, ctx.params, ctx.rng
    n = graph.num_vertices

    src, dst = graph.edge_endpoints()
    mask = src < dst
    src, dst = src[mask], dst[mask]

    with telemetry.stage("sgd"):
        scale = 1.0 / np.sqrt(params.dimension)
        w = rng.standard_normal((n, params.dimension)) * scale
        adagrad = np.full(n, 1e-8)  # per-row accumulated squared gradients
        for _ in range(params.epochs):
            order = rng.permutation(src.size)
            for start in range(0, src.size, params.batch_size):
                idx = order[start : start + params.batch_size]
                s, d = src[idx], dst[idx]
                neg = rng.integers(0, n, size=(s.size, params.negatives))
                _ranking_step(w, adagrad, s, d, neg, params.learning_rate)

    ctx.info.update({"epochs": params.epochs, "negatives": params.negatives})
    return w


PBG_PIPELINE = PipelineSpec(name="pbg", body=_pbg_body)


def pbg_embedding(
    graph: CSRGraph,
    params: PBGParams = PBGParams(),
    seed: SeedLike = None,
) -> EmbeddingResult:
    """Train the PBG-style edge-ranking embedding."""
    return run_pipeline(graph, PBG_PIPELINE, params, seed)


def _ranking_step(
    w: np.ndarray,
    adagrad: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One mini-batch: logistic loss on (s,t) positive vs (s,neg) corrupted.

    Updates use per-row Adagrad step sizes (``lr / sqrt(Σ‖g‖²)``), PBG's
    optimizer — plain SGD on this loss is divergence-prone because the two
    endpoints amplify each other's norms.
    """
    d = w.shape[1]
    v_s = w[sources]
    v_t = w[targets]
    v_n = w[negatives]  # (B, K, d)

    pos = _sigmoid(np.einsum("bd,bd->b", v_s, v_t))
    neg = _sigmoid(np.einsum("bd,bkd->bk", v_s, v_n))

    g_pos = (1.0 - pos)[:, None]
    g_neg = -neg[:, :, None]

    grad_s = g_pos * v_t + np.einsum("bkd->bd", g_neg * v_n)
    grad_t = g_pos * v_s
    grad_n = g_neg * v_s[:, None, :]

    # Accumulate squared-gradient norms per touched row, then scale.
    flat_rows = np.concatenate([sources, targets, negatives.ravel()])
    flat_grads = np.concatenate(
        [grad_s, grad_t, grad_n.reshape(-1, d)], axis=0
    )
    np.add.at(adagrad, flat_rows, np.einsum("bd,bd->b", flat_grads, flat_grads) / d)
    steps = (lr / np.sqrt(adagrad[flat_rows]))[:, None] * flat_grads
    np.add.at(w, flat_rows, steps)
