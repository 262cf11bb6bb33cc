"""The acquisition function of Eq. 1 and its two components.

``score = |∂l/∂W|  +  c · ln(t) / (N + ε)``

The first term (exploitation) is RigL's greedy gradient-magnitude rule; the
second (exploration) is a UCB-style coverage bonus driven by the occurrence
counters of :class:`~repro.sparse.counter.CoverageTracker`.  Setting ``c=0``
recovers RigL exactly, which the ablation benches exploit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exploitation_score", "exploration_score", "acquisition_score"]


def exploitation_score(grad: np.ndarray) -> np.ndarray:
    """Exploitation term: absolute dense gradient (Eq. 1, first term)."""
    return np.abs(grad)


def exploration_score(counter: np.ndarray, step: int, c: float, epsilon: float = 1.0) -> np.ndarray:
    """Exploration term ``c·ln(t)/(N+ε)`` (Eq. 1, second term).

    Parameters
    ----------
    counter:
        Occurrence counts ``N`` (how many rounds each weight was active).
    step:
        Current training iteration ``t`` (must be ≥ 1; the log of the global
        step keeps the bonus growing slowly over training, so long-ignored
        weights eventually out-score small-gradient active candidates).
    c:
        Trade-off coefficient (the paper sweeps 1e-4 … 5e-3 in Fig. 3).
    epsilon:
        Positive constant keeping the denominator non-zero.  With the
        default 1.0 every never-active weight receives the same bonus
        ``c·ln(t)`` and ties are broken by the gradient term.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1 for ln(t), got {step}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return c * np.log(float(step)) / (counter + epsilon)


def acquisition_score(
    grad: np.ndarray,
    counter: np.ndarray,
    step: int,
    c: float,
    epsilon: float = 1.0,
) -> np.ndarray:
    """Full DST-EE acquisition score (Eq. 1).

    Computed with two buffers and in-place ufuncs — this runs over the full
    dense weight shape every mask-update round, so temporaries matter.
    ``counter`` may broadcast against ``grad``: a ``(R, 1, C)`` counter
    against the ``(R, B, C)`` view of a gradient computes the bonus once
    per ``B`` rows.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1 for ln(t), got {step}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    score = np.abs(grad)
    bonus = counter + epsilon
    np.divide(c * np.log(float(step)), bonus, out=bonus)
    np.add(score, bonus, out=score)
    return score
