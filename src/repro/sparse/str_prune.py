"""STR-style dense-to-sparse training via scheduled layerwise thresholding.

The original STR (Kusupati et al., ICML'20) reparameterizes each weight as
``sign(w)·relu(|w| − sigmoid(s_l))`` with a learnable per-layer threshold
``s_l`` whose final value is tuned indirectly through weight decay.  That
indirect control makes hitting an exact target sparsity awkward, and the
literal proximal form (subtracting τ from every weight every step) needs
STR's 100-epoch budgets for surviving weights to out-run the shrinkage bias.
Following the substitution rule (DESIGN.md §2) we keep STR's two essential
behaviours at bench scale:

* **layerwise thresholds applied to the live weights** — every step, each
  layer's weights below its threshold ``τ_l(t)`` are zeroed, but gradients
  stay dense so pruned weights can revive (STR's sub-threshold dynamics);
* **the sparsity level follows a schedule** — ``τ_l(t)`` is set to the
  |w|-quantile matching a cubic dense→sparse schedule, so which weights
  survive is decided by training dynamics while the level is exact.

EXPERIMENTS.md records this as "STR (thresholding variant)".
"""

from __future__ import annotations

import numpy as np

from repro.sparse.budget import DensityBudget
from repro.sparse.engine import SparsityController
from repro.sparse.gmp import cubic_sparsity
from repro.sparse.masked import MaskedModel
from repro.sparse.schedule import TrainingSchedule

__all__ = ["STRController"]


class STRController(SparsityController):
    """Proximal soft-threshold dense-to-sparse training.

    Unified form (see docs/controllers.md)::

        STRController(masked, schedule, budget, grad_clip=...)

    ``schedule`` supplies the threshold-update window
    (``t_start_fraction``/``t_end_fraction``/``delta_t``), ``budget`` the
    *final* global allocation (per-layer split nominal — thresholds are
    layerwise quantiles of a global cubic schedule).

    Parameters
    ----------
    masked:
        :class:`MaskedModel` built dense (``sparsity=0``); its masks track
        the current non-zero pattern for reporting/FLOPs.
    grad_clip:
        Global gradient-norm clip (dense-to-sparse stabilization).
    """

    # Construction-time config: the final target and the threshold window
    # never mutate during training (thresholds themselves ARE checkpointed).
    CHECKPOINT_EXEMPT = {"budget", "schedule"}

    def __init__(
        self,
        masked: MaskedModel,
        schedule: TrainingSchedule,
        budget: DensityBudget,
        grad_clip: float = 5.0,
    ):
        final_sparsity = 1.0 - budget.total / budget.capacity
        if not 0.0 < final_sparsity < 1.0:
            raise ValueError(f"final_sparsity must be in (0, 1), got {final_sparsity}")
        self.masked = masked
        self.schedule = schedule
        self.budget = budget
        self.final_sparsity = float(final_sparsity)
        self.total_steps = schedule.total_steps
        self.t_start = schedule.t_start
        self.t_end = schedule.t_end
        self.delta_t = schedule.delta_t
        self.grad_clip = float(grad_clip)
        self._thresholds = [0.0 for _ in masked.targets]
        self.history: list[tuple[int, float]] = []

    def on_backward(self, step: int) -> bool:
        # Dense-to-sparse: gradients stay dense (pruned weights may revive
        # early in training, as in STR); masks only track the pattern.
        # Abrupt threshold jumps at high sparsity can destabilize training,
        # so the global gradient norm is clipped (standard dense-to-sparse
        # practice).
        if self.grad_clip > 0:
            self._clip_gradients()
        return False

    def _clip_gradients(self) -> None:
        grads = [p.grad for p in self.masked.model.parameters() if p.grad is not None]
        if not grads:
            return
        total_norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads)))
        if total_norm > self.grad_clip:
            scale = self.grad_clip / (total_norm + 1e-12)
            for param in self.masked.model.parameters():
                if param.grad is not None:
                    param.grad = (param.grad * scale).astype(param.grad.dtype)

    def after_step(self, step: int) -> None:
        if step % self.delta_t == 0 or step == 1:
            self._update_thresholds(step)
            self.history.append((step, self.masked.global_sparsity()))
        self._shrink()

    def _update_thresholds(self, step: int) -> None:
        target = cubic_sparsity(step, self.t_start, self.t_end, 0.0, self.final_sparsity)
        for index, sparse_param in enumerate(self.masked.targets):
            magnitudes = np.abs(sparse_param.param.data.reshape(-1))
            if target <= 0.0:
                self._thresholds[index] = 0.0
            else:
                self._thresholds[index] = float(np.quantile(magnitudes, target))

    def _shrink(self) -> None:
        for threshold, sparse_param in zip(self._thresholds, self.masked.targets):
            if threshold <= 0.0:
                sparse_param.mask = np.ones_like(sparse_param.mask)
                continue
            weights = sparse_param.param.data
            thresholded = np.where(np.abs(weights) >= threshold, weights, 0.0)
            sparse_param.param.data = thresholded.astype(weights.dtype)
            sparse_param.mask = thresholded != 0.0

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["thresholds"] = list(self._thresholds)
        state["history"] = [tuple(item) for item in self.history]
        return state

    def load_state_dict(self, state: dict) -> None:
        # Thresholds are only recomputed every delta_t steps, so a resumed run
        # must start from the saved ones or _shrink() would apply stale zeros
        # until the next update boundary.
        super().load_state_dict(state)
        if "thresholds" in state:
            self._thresholds = [float(value) for value in state["thresholds"]]
        if "history" in state:
            self.history = [
                (int(step), float(sparsity)) for step, sparsity in state["history"]
            ]

    def finalize(self) -> None:
        """Freeze the final pattern into the masks (call after training)."""
        for sparse_param in self.masked.targets:
            sparse_param.mask = sparse_param.param.data != 0.0
        self.masked.apply_masks()
