"""Classification accuracy metrics."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["accuracy", "topk_accuracy", "binary_accuracy"]


def _logits_array(logits) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits)


def accuracy(logits, targets) -> float:
    """Top-1 accuracy of ``(N, C)`` logits against integer targets.

    ``(N,)`` logits are one binary score each, scored by
    :func:`binary_accuracy` at threshold 0.
    """
    scores = _logits_array(logits)
    if scores.ndim == 1:
        return binary_accuracy(scores, targets)
    predictions = scores.argmax(axis=1)
    targets = np.asarray(targets).reshape(-1)
    return float((predictions == targets).mean())


def topk_accuracy(logits, targets, k: int = 5) -> float:
    """Top-k accuracy (is the true class among the k highest logits?)."""
    scores = _logits_array(logits)
    targets = np.asarray(targets).reshape(-1)
    if k >= scores.shape[1]:
        return 1.0
    topk = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    return float((topk == targets[:, None]).any(axis=1).mean())


def binary_accuracy(logits, targets, threshold: float = 0.0) -> float:
    """Accuracy of binary logits at the given decision threshold.

    A logit above ``threshold`` (0 ⇔ probability 0.5) predicts the positive
    class — the metric the GNN link-prediction tables report.
    """
    scores = _logits_array(logits).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    predictions = (scores > threshold).astype(targets.dtype)
    return float((predictions == targets).mean())
