"""Loss functions (cross-entropy, BCE with logits, Huber)."""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor, ensure_tensor

__all__ = [
    "cross_entropy",
    "lm_cross_entropy",
    "binary_cross_entropy_with_logits",
    "huber_loss",
]


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy between ``logits`` ``(N, C)`` and integer targets ``(N,)``.

    Fuses a numerically-stable log-softmax with negative log-likelihood
    selection, exactly matching ``torch.nn.functional.cross_entropy`` for
    hard labels with mean reduction.
    """
    logits = ensure_tensor(logits)
    target_idx = np.asarray(targets.data if isinstance(targets, Tensor) else targets)
    target_idx = target_idx.astype(np.int64).reshape(-1)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    if target_idx.shape[0] != n:
        raise ValueError(
            f"batch mismatch: {n} logits rows vs {target_idx.shape[0]} targets"
        )
    log_probs = ops.log_softmax(logits, axis=1)
    picked = ops.getitem(log_probs, (np.arange(n), target_idx))
    return ops.neg(ops.mean(picked))


def lm_cross_entropy(logits: Tensor, targets, ignore_index: int = -1) -> Tensor:
    """Next-token cross-entropy over a vocabulary, skipping ``ignore_index``.

    ``logits`` is ``(N, V)`` (callers flatten ``(B, T, V)`` to rows) and
    ``targets`` is any integer shape with ``N`` elements.  Positions whose
    target equals ``ignore_index`` (padding) contribute neither loss nor
    gradient; the mean runs over the *valid* positions only, so
    ``exp(loss)`` is exactly the per-token perplexity the LM benchmarks
    report.
    """
    logits = ensure_tensor(logits)
    target_idx = np.asarray(targets.data if isinstance(targets, Tensor) else targets)
    target_idx = target_idx.astype(np.int64).reshape(-1)
    if logits.ndim != 2:
        raise ValueError(f"lm_cross_entropy expects 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    if target_idx.shape[0] != n:
        raise ValueError(
            f"batch mismatch: {n} logits rows vs {target_idx.shape[0]} targets"
        )
    valid = np.nonzero(target_idx != ignore_index)[0]
    if valid.size == 0:
        raise ValueError("every target position equals ignore_index; loss is undefined")
    log_probs = ops.log_softmax(logits, axis=1)
    picked = ops.getitem(log_probs, (valid, target_idx[valid]))
    return ops.neg(ops.mean(picked))


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean BCE over logits, computed in the numerically stable form.

    ``loss = max(z, 0) - z*y + log(1 + exp(-|z|))`` averaged over elements.
    """
    logits = ensure_tensor(logits)
    targets = ensure_tensor(targets)
    relu_z = ops.relu(logits)
    linear_term = ops.mul(logits, targets)
    softplus = ops.log(ops.add(1.0, ops.exp(ops.neg(ops.abs(logits)))))
    loss = ops.add(ops.sub(relu_z, linear_term), softplus)
    return ops.mean(loss)


def huber_loss(prediction: Tensor, target, delta: float = 1.0) -> Tensor:
    """Mean Huber loss (quadratic within ``delta``, linear outside).

    ``loss = 0.5 * d**2`` for ``|d| <= delta`` else
    ``delta * (|d| - 0.5 * delta)``, averaged over elements — matching
    ``torch.nn.functional.huber_loss`` with mean reduction.  The standard
    TD-error loss for DQN: large bootstrapped-target errors contribute
    bounded gradients, which keeps early Q-learning stable.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    prediction = ensure_tensor(prediction)
    target = ensure_tensor(target)
    diff = ops.sub(prediction, target)
    abs_diff = ops.abs(diff)
    quadratic = ops.mul(0.5, ops.mul(diff, diff))
    linear = ops.mul(delta, ops.sub(abs_diff, 0.5 * delta))
    return ops.mean(ops.where(abs_diff.data <= delta, quadratic, linear))
