"""ADMM prune-from-dense (Zhang et al., ECCV'18) — the Tables III/IV baseline.

The paper compares DST-EE against "the best sparse model pruned from the
dense model using ADMM", trained 60 epochs: 20 pretrain + 20 reweighted
ADMM + 20 retrain after hard pruning.  This module provides the ADMM state
machine as a trainer controller; the three-phase pipeline is
``run_gnn("admm")`` in :mod:`repro.experiments.gnn`.

ADMM splits the constrained problem  ``min L(W)  s.t.  ‖W_l‖₀ ≤ k_l``
into a differentiable part and a projection:

* during training, each target layer receives the augmented-Lagrangian
  gradient ``ρ (W − Z + U)`` in addition to the task gradient;
* periodically, ``Z ← Π_k(W + U)`` (Euclidean projection onto the k-sparse
  set = keep top-k by magnitude) and ``U ← U + W − Z``.

After the ADMM phase, :meth:`ADMMPruner.hard_prune_masks` keeps the top-k
weights per layer; retraining then proceeds with a fixed mask.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.sparse.masked import collect_sparsifiable

__all__ = ["ADMMPruner", "project_topk"]


def project_topk(weights: np.ndarray, density: float) -> np.ndarray:
    """Euclidean projection onto the k-sparse set (keep top-k by |w|)."""
    flat = weights.reshape(-1)
    k = max(1, int(round(density * flat.size)))
    projected = np.zeros_like(flat)
    keep = np.argpartition(-np.abs(flat), k - 1)[:k]
    projected[keep] = flat[keep]
    return projected.reshape(weights.shape)


class ADMMPruner:
    """ADMM state (Z, U) for pruning selected layers to a uniform sparsity.

    It has the trainer's controller hooks: the penalty gradient after every
    backward, :meth:`dual_update` every ``DUAL_EVERY`` epochs.  An update
    that falls due at an epoch's end runs before the next step, where W is
    still the same, so the last epoch of a phase runs none: hard pruning
    reads only W and would discard its Z and U.  It has no ``state_dict``,
    so a trainer driving it cannot write checkpoints.

    Parameters
    ----------
    model:
        The network being pruned.
    sparsity:
        Per-layer sparsity (the GNN experiments use uniform ratios).
    rho:
        Augmented-Lagrangian penalty coefficient.
    include_modules:
        Restrict to specific layers (e.g. the GNN's two FC layers).
    """

    DUAL_EVERY = 2

    def __init__(
        self,
        model: Module,
        sparsity: float,
        rho: float = 1e-2,
        include_modules=None,
    ):
        if not 0.0 < sparsity < 1.0:
            raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
        self.model = model
        self.sparsity = float(sparsity)
        self.density = 1.0 - self.sparsity
        self.rho = float(rho)
        self.targets = collect_sparsifiable(model, include_modules)
        self.Z = {
            name: project_topk(param.data.astype(np.float64), self.density)
            for name, param in self.targets
        }
        self.U = {name: np.zeros(param.shape, dtype=np.float64) for name, param in self.targets}
        self._dual_due = False

    def add_penalty_gradients(self) -> None:
        """Add ``ρ(W − Z + U)`` to each target's gradient (call post-backward)."""
        for name, param in self.targets:
            penalty = self.rho * (param.data - self.Z[name] + self.U[name])
            if param.grad is None:
                param.grad = penalty.astype(param.dtype)
            else:
                param.grad = param.grad + penalty.astype(param.dtype)

    def before_backward(self, step: int) -> None:
        """Run the dual update that fell due at the last epoch's end."""
        if self._dual_due:
            self._dual_due = False
            self.dual_update()

    def on_backward(self, step: int) -> bool:
        self.add_penalty_gradients()
        return False

    def after_step(self, step: int) -> None:
        """Nothing: ADMM constrains the weights only through the penalty."""

    def on_epoch_end(self, epoch: int) -> None:
        self._dual_due = (epoch + 1) % self.DUAL_EVERY == 0

    def penalty_value(self) -> float:
        """Current augmented-Lagrangian penalty ``ρ/2 Σ‖W − Z + U‖²``."""
        total = 0.0
        for name, param in self.targets:
            diff = param.data - self.Z[name] + self.U[name]
            total += float((diff**2).sum())
        return 0.5 * self.rho * total

    def dual_update(self) -> None:
        """``Z ← Π_k(W + U)``; ``U ← U + W − Z`` (call every few epochs)."""
        for name, param in self.targets:
            w = param.data.astype(np.float64)
            self.Z[name] = project_topk(w + self.U[name], self.density)
            self.U[name] = self.U[name] + w - self.Z[name]

    def primal_residual(self) -> float:
        """``Σ‖W − Z‖ / Σ‖W‖`` — convergence diagnostic."""
        num = 0.0
        den = 0.0
        for name, param in self.targets:
            num += float(np.linalg.norm(param.data - self.Z[name]))
            den += float(np.linalg.norm(param.data))
        return num / max(den, 1e-12)

    def hard_prune_masks(self) -> dict[str, np.ndarray]:
        """Final top-k masks per layer (keep |w| largest at current W)."""
        masks: dict[str, np.ndarray] = {}
        for name, param in self.targets:
            flat = np.abs(param.data.reshape(-1))
            k = max(1, int(round(self.density * flat.size)))
            keep = np.argpartition(-flat, k - 1)[:k]
            mask = np.zeros(flat.size, dtype=bool)
            mask[keep] = True
            masks[name] = mask.reshape(param.shape)
        return masks
