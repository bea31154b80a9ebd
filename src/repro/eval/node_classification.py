"""Node-classification evaluation (DeepWalk/NetMF protocol, paper §5.1).

Given embeddings and a boolean label matrix: sample a training fraction,
train one-vs-rest logistic regression, predict top-``k`` labels on the rest
(``k`` = true label count per node), report Micro/Macro F1 averaged over
repeats.  The paper reports label ratios from 0.001% (OAG) to 90%
(BlogCatalog).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import EvaluationError
from repro.eval.logistic import LogisticRegressionOVR
from repro.eval.metrics import f1_scores
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class NodeClassificationResult:
    """Micro/Macro F1 (mean ± std over repeats) at one training ratio."""

    train_ratio: float
    micro_f1: float
    macro_f1: float
    repeats: int
    micro_std: float = 0.0
    macro_std: float = 0.0

    def as_row(self) -> dict:
        """Table-friendly dict view (percentages, like the paper)."""
        return {
            "ratio": self.train_ratio,
            "micro": round(100.0 * self.micro_f1, 2),
            "macro": round(100.0 * self.macro_f1, 2),
            "micro_std": round(100.0 * self.micro_std, 2),
        }


def _split_indices(
    num_samples: int,
    train_ratio: float,
    rng: np.random.Generator,
    *,
    min_train: int = 2,
) -> tuple:
    """Random train/test split with a floor on the training-set size."""
    train_size = max(min_train, int(round(train_ratio * num_samples)))
    if train_size >= num_samples:
        raise EvaluationError(
            f"train_ratio {train_ratio} leaves no test samples (n={num_samples})"
        )
    permutation = rng.permutation(num_samples)
    return permutation[:train_size], permutation[train_size:]


def evaluate_node_classification(
    embeddings: np.ndarray,
    labels: np.ndarray,
    train_ratio: float,
    *,
    repeats: int = 3,
    regularization: float = 1.0,
    seed: SeedLike = None,
    normalize: bool = True,
) -> NodeClassificationResult:
    """Run the full protocol at one training ratio.

    Parameters
    ----------
    embeddings:
        ``(n, d)`` node vectors.
    labels:
        ``(n, L)`` boolean membership matrix; nodes without any label are
        excluded (they cannot be scored under the top-k protocol).
    train_ratio:
        Fraction of labeled nodes used for training (0 < ratio < 1).
    repeats:
        Independent random splits to average over.
    normalize:
        Row-L2 normalize the embeddings first (standard in the protocol).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if embeddings.ndim != 2 or labels.ndim != 2:
        raise EvaluationError("embeddings and labels must be 2-D")
    if embeddings.shape[0] != labels.shape[0]:
        raise EvaluationError("embeddings and labels must have matching rows")
    if not 0.0 < train_ratio < 1.0:
        raise EvaluationError(f"train_ratio must be in (0, 1), got {train_ratio}")
    if repeats < 1:
        raise EvaluationError(f"repeats must be >= 1, got {repeats}")

    labeled = labels.any(axis=1)
    features = embeddings[labeled]
    target = labels[labeled]
    if features.shape[0] < 4:
        raise EvaluationError("need at least 4 labeled nodes")
    if normalize:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        features = features / norms

    rng = ensure_rng(seed)
    micros = []
    macros = []
    for _ in range(repeats):
        train_idx, test_idx = _split_indices(features.shape[0], train_ratio, rng)
        model = LogisticRegressionOVR(regularization=regularization)
        model.fit(features[train_idx], target[train_idx])
        counts = target[test_idx].sum(axis=1)
        predictions = model.predict_top_k(features[test_idx], counts)
        micro, macro = f1_scores(target[test_idx], predictions)
        micros.append(micro)
        macros.append(macro)
    return NodeClassificationResult(
        train_ratio=train_ratio,
        micro_f1=float(np.mean(micros)),
        macro_f1=float(np.mean(macros)),
        repeats=repeats,
        micro_std=float(np.std(micros)),
        macro_std=float(np.std(macros)),
    )

