"""Evaluation tasks and metrics (paper Section 5.1).

Node classification follows the DeepWalk/NetMF protocol: one-vs-rest logistic
regression on the embeddings, predicting the top-``k`` labels where ``k`` is
the node's true label count, scored by Micro/Macro F1.  Link prediction
follows PBG's protocol: held-out positive edges ranked against sampled
corrupted edges, scored by MR/MRR/HITS@K (plus AUC for the GraphVite
comparison).
"""

from repro.eval.metrics import (
    auc_score,
    f1_scores,
    hits_at_k,
    mean_rank,
    mean_reciprocal_rank,
)
from repro.eval.logistic import LogisticRegressionOVR
from repro.eval.node_classification import (
    NodeClassificationResult,
    evaluate_node_classification,
)
from repro.eval.link_prediction import (
    LinkPredictionResult,
    evaluate_link_prediction,
    link_prediction_auc,
    train_test_split_edges,
)

__all__ = [
    "auc_score",
    "f1_scores",
    "hits_at_k",
    "mean_rank",
    "mean_reciprocal_rank",
    "LogisticRegressionOVR",
    "NodeClassificationResult",
    "evaluate_node_classification",
    "LinkPredictionResult",
    "evaluate_link_prediction",
    "link_prediction_auc",
    "train_test_split_edges",
]
