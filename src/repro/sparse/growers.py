"""Growth and drop rules for dynamic sparse training.

The drop-and-grow engine (:mod:`repro.sparse.engine`) is parameterized by a
:class:`GrowthRule` (how to score *inactive* weights for activation) and a
:class:`DropRule` (how to score *active* weights for deactivation; lowest
scores are dropped).  The combinations reproduce the methods compared in the
paper's tables:

==============  =======================  ==========================
Method          Drop rule                Growth rule
==============  =======================  ==========================
SET             magnitude                random
RigL            magnitude                |dense gradient|
DST-EE (ours)   magnitude                |grad| + c·ln(t)/(N+ε)
SNFS            magnitude                |gradient momentum (EMA)|
DeepR           sign-flip                random
MEST            magnitude + λ·|grad|     random
DSR             global magnitude         random (proportional realloc)
==============  =======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.sparse.masked import SparseParam
from repro.sparse.scoring import acquisition_score

__all__ = [
    "LayerContext",
    "GrowthRule",
    "DropRule",
    "RandomGrowth",
    "GradientGrowth",
    "DSTEEGrowth",
    "MomentumGrowth",
    "MagnitudeDrop",
    "MagnitudeGradientDrop",
    "SignFlipDrop",
]


@dataclass
class LayerContext:
    """Everything a rule may need to score one layer at one update step."""

    step: int
    rng: np.random.Generator
    dense_grad: np.ndarray | None = None
    counter: np.ndarray | None = None
    grad_ema: np.ndarray | None = None
    sign_reference: np.ndarray | None = None


class GrowthRule(Protocol):
    """Scores inactive weights; the top-k are activated."""

    needs_dense_grad: bool
    needs_grad_ema: bool
    needs_counter: bool

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray: ...


class DropRule(Protocol):
    """Scores active weights; the bottom-k are deactivated.

    Rules may additionally implement ``scores_at(target, ctx, flat_idx)``
    returning scores only at the given flat indices; the engine uses it so
    drop-ranking cost scales with the active count, not the layer size.
    ``scores_at`` must agree with ``scores(...)[flat_idx]`` exactly.
    """

    needs_dense_grad: bool
    needs_sign_reference: bool

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray: ...


# ----------------------------------------------------------------------
# growth rules
# ----------------------------------------------------------------------


class RandomGrowth:
    """SET/MEST/DeepR: uniform-random scores for inactive weights."""

    needs_dense_grad = False
    needs_grad_ema = False
    needs_counter = False

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        return ctx.rng.random(target.param.shape)


class GradientGrowth:
    """RigL: absolute dense gradient (greedy exploitation only)."""

    needs_dense_grad = True
    needs_grad_ema = False
    needs_counter = False

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        if ctx.dense_grad is None:
            raise RuntimeError("GradientGrowth requires the dense gradient")
        return np.abs(ctx.dense_grad)


class DSTEEGrowth:
    """The paper's acquisition function: exploitation + coverage exploration.

    Parameters
    ----------
    c:
        Trade-off coefficient between gradient exploitation and coverage
        exploration (Fig. 3 sweeps 1e-4 … 5e-3).
    epsilon:
        Positive denominator constant of Eq. 1.
    """

    needs_dense_grad = True
    needs_grad_ema = False
    needs_counter = True

    def __init__(self, c: float = 1e-3, epsilon: float = 1.0):
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        self.c = float(c)
        self.epsilon = float(epsilon)

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        """Eq. 1 per weight from the per-tile ``ctx.counter``, its bonus computed
        once per row of tiles and added into that row's ``B`` rows of ``|g|``."""
        if ctx.dense_grad is None:
            raise RuntimeError("DSTEEGrowth requires the dense gradient")
        if ctx.counter is None:
            raise RuntimeError("DSTEEGrowth requires the coverage counter")
        b = target.block_size
        rows, cols = target.shape2d
        grad = ctx.dense_grad.reshape(rows // b, b, cols)
        counter = ctx.counter.repeat(b, axis=1).reshape(rows // b, 1, cols)
        score = acquisition_score(grad, counter, max(ctx.step, 2), self.c, self.epsilon)
        return score.reshape(ctx.dense_grad.shape)


class MomentumGrowth:
    """SNFS: exponentially-smoothed dense-gradient magnitude."""

    needs_dense_grad = False
    needs_grad_ema = True
    needs_counter = False

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        if ctx.grad_ema is None:
            raise RuntimeError("MomentumGrowth requires the gradient EMA")
        return np.abs(ctx.grad_ema)


# ----------------------------------------------------------------------
# drop rules
# ----------------------------------------------------------------------


class MagnitudeDrop:
    """Drop the active weights closest to zero (paper's ArgTopK drop)."""

    needs_dense_grad = False
    needs_sign_reference = False

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        return np.abs(target.param.data)

    def scores_at(self, target: SparseParam, ctx: LayerContext, flat_idx: np.ndarray) -> np.ndarray:
        return np.abs(target.param.data.reshape(-1)[flat_idx])


class MagnitudeGradientDrop:
    """MEST: importance ``|w| + λ|∇w|`` — drop the least important."""

    needs_dense_grad = True
    needs_sign_reference = False

    def __init__(self, lam: float = 1.0):
        self.lam = float(lam)

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        if ctx.dense_grad is None:
            raise RuntimeError("MagnitudeGradientDrop requires the dense gradient")
        return np.abs(target.param.data) + self.lam * np.abs(ctx.dense_grad)

    def scores_at(self, target: SparseParam, ctx: LayerContext, flat_idx: np.ndarray) -> np.ndarray:
        if ctx.dense_grad is None:
            raise RuntimeError("MagnitudeGradientDrop requires the dense gradient")
        weights = target.param.data.reshape(-1)[flat_idx]
        grads = ctx.dense_grad.reshape(-1)[flat_idx]
        return np.abs(weights) + self.lam * np.abs(grads)


class SignFlipDrop:
    """DeepR: drop weights whose sign flipped since activation.

    Sign-flipped weights score ``-|w|`` (dropped first, most-flipped first);
    stable weights score ``+|w|`` so, if fewer than ``k`` flips happened,
    the remainder is filled by smallest-magnitude stable weights.
    """

    needs_dense_grad = False
    needs_sign_reference = True

    def scores(self, target: SparseParam, ctx: LayerContext) -> np.ndarray:
        if ctx.sign_reference is None:
            raise RuntimeError("SignFlipDrop requires the activation-time sign snapshot")
        magnitude = np.abs(target.param.data)
        flipped = target.param.data * ctx.sign_reference < 0
        return np.where(flipped, -magnitude, magnitude)

    def scores_at(self, target: SparseParam, ctx: LayerContext, flat_idx: np.ndarray) -> np.ndarray:
        if ctx.sign_reference is None:
            raise RuntimeError("SignFlipDrop requires the activation-time sign snapshot")
        weights = target.param.data.reshape(-1)[flat_idx]
        references = ctx.sign_reference.reshape(-1)[flat_idx]
        magnitude = np.abs(weights)
        return np.where(weights * references < 0, -magnitude, magnitude)
