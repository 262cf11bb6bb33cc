"""Gradual magnitude pruning (dense-to-sparse), GraNet-style schedule.

Training starts dense; every ``delta_t`` steps between ``t_start`` and
``t_end`` the global sparsity is raised along the cubic schedule of Zhu &
Gupta (2018) (also used by GraNet, the source of the paper's baseline
numbers):

``s(t) = s_f + (s_i − s_f) · (1 − (t − t0)/(t1 − t0))³``

Pruning is global magnitude: the smallest-|w| active weights are removed.
Optionally, a RigL-style regrow step (``regrow_fraction > 0``) reactivates a
fraction of pruned weights by gradient magnitude — GraNet's
"neuroregeneration".  With ``regrow_fraction=0`` this is classic GMP.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.budget import DensityBudget
from repro.sparse.engine import SparsityController
from repro.sparse.masked import MaskedModel
from repro.sparse.schedule import TrainingSchedule
from repro.rng import resolve_rng

__all__ = ["cubic_sparsity", "GMPController"]


def cubic_sparsity(step: int, t_start: int, t_end: int, initial: float, final: float) -> float:
    """Zhu–Gupta cubic sparsity schedule, clamped outside ``[t_start, t_end]``."""
    if step <= t_start:
        return initial
    if step >= t_end:
        return final
    progress = (step - t_start) / (t_end - t_start)
    return final + (initial - final) * (1.0 - progress) ** 3


class GMPController(SparsityController):
    """Dense-to-sparse gradual magnitude pruning.

    Unified form (see docs/controllers.md)::

        GMPController(masked, schedule, budget, regrow_fraction=..., rng=...)

    where ``schedule`` is a :class:`~repro.sparse.schedule.TrainingSchedule`
    (its ``t_start_fraction``/``t_end_fraction``/``delta_t`` drive the
    pruning window) and ``budget`` is the *final*
    :class:`~repro.sparse.budget.DensityBudget` — the global allocation the
    cubic schedule prunes down to (per-layer split nominal: GMP prunes by
    global magnitude).

    Parameters
    ----------
    masked:
        A :class:`MaskedModel` built with ``sparsity=initial_sparsity``
        (usually 0 ⇒ all-ones masks).
    regrow_fraction:
        If > 0, after each prune event, re-activate this fraction of the
        *pruned-this-step* count by dense-gradient magnitude (GraNet).
    """

    # ``budget`` and ``schedule`` are construction-time config (the final
    # target and the pruning window); they never mutate during training, so
    # resume correctness does not depend on checkpointing them.
    CHECKPOINT_EXEMPT = {"budget", "schedule"}

    def __init__(
        self,
        masked: MaskedModel,
        schedule: TrainingSchedule,
        budget: DensityBudget,
        regrow_fraction: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        final_sparsity = 1.0 - budget.total / budget.capacity
        if not 0.0 < final_sparsity < 1.0:
            raise ValueError(f"final_sparsity must be in (0, 1), got {final_sparsity}")
        self.masked = masked
        self.schedule = schedule
        self.budget = budget
        self.final_sparsity = float(final_sparsity)
        self.initial_sparsity = masked.global_sparsity()
        self.total_steps = schedule.total_steps
        self.t_start = schedule.t_start
        self.t_end = schedule.t_end
        self.delta_t = schedule.delta_t
        self.regrow_fraction = float(regrow_fraction)
        self.rng = resolve_rng(rng)
        self.history: list[tuple[int, float]] = []

    def current_target(self, step: int) -> float:
        """Scheduled sparsity at ``step``."""
        return cubic_sparsity(
            step, self.t_start, self.t_end, self.initial_sparsity, self.final_sparsity
        )

    def on_backward(self, step: int) -> bool:
        if step % self.delta_t == 0 and self.t_start <= step <= self.t_end + self.delta_t:
            self._prune_to(self.current_target(step))
            # The masked model's budget mirrors the pruned masks, so budget
            # accessors (global_budget, layer_allocations) stay truthful
            # while the cubic schedule tightens.
            self.masked.budget.refresh_from_masks(self.masked)
            self.history.append((step, self.masked.global_sparsity()))
        self.masked.mask_gradients()
        return False

    def after_step(self, step: int) -> None:
        self.masked.apply_masks()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["history"] = [[int(step), float(s)] for step, s in self.history]
        state["rng"] = self.rng.bit_generator.state
        # Captured from the *live* masks at construction: a resumed run
        # constructs against already-pruned masks, so without this the cubic
        # schedule would restart from the wrong starting sparsity.
        state["initial_sparsity"] = self.initial_sparsity
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.history = [(int(step), float(s)) for step, s in state["history"]]
        self.rng.bit_generator.state = state["rng"]
        if "initial_sparsity" in state:
            self.initial_sparsity = float(state["initial_sparsity"])

    # ------------------------------------------------------------------
    def _prune_to(self, sparsity: float, allow_regrow: bool = True) -> None:
        """Globally remove smallest-|w| active weights down to ``1-sparsity``."""
        total = self.masked.total_size
        target_active = max(len(self.masked.targets), int(round((1.0 - sparsity) * total)))
        current_active = self.masked.total_active
        to_remove = current_active - target_active
        if to_remove <= 0:
            return
        magnitudes = []
        owners = []
        positions = []
        for index, target in enumerate(self.masked.targets):
            flat_mask = target.mask.reshape(-1)
            active_idx = np.flatnonzero(flat_mask)
            magnitudes.append(np.abs(target.param.data.reshape(-1)[active_idx]))
            owners.append(np.full(active_idx.size, index))
            positions.append(active_idx)
        flat_mag = np.concatenate(magnitudes)
        flat_owner = np.concatenate(owners)
        flat_pos = np.concatenate(positions)
        chosen = np.argpartition(flat_mag, to_remove - 1)[:to_remove]
        pruned_per_layer: dict[int, list[int]] = {}
        for c in chosen:
            pruned_per_layer.setdefault(int(flat_owner[c]), []).append(int(flat_pos[c]))
        for layer_index, indices in pruned_per_layer.items():
            target = self.masked.targets[layer_index]
            flat_mask = target.mask.reshape(-1)
            flat_mask[np.asarray(indices, dtype=np.int64)] = False
            if flat_mask.sum() == 0:  # never sever a layer
                best = int(np.argmax(np.abs(target.param.data)))
                flat_mask[best] = True
            target.mark_mask_dirty()
        if allow_regrow and self.regrow_fraction > 0.0:
            self._regrow(int(self.regrow_fraction * to_remove))
        self.masked.apply_masks()

    def _regrow(self, count: int) -> None:
        """GraNet neuroregeneration: regrow by dense-gradient magnitude.

        To keep the scheduled sparsity exact, an equal number of the
        smallest-|w| active weights is removed again afterwards.
        """
        if count <= 0:
            return
        entries = []
        for index, target in enumerate(self.masked.targets):
            grad = target.param.grad
            if grad is None:
                continue
            flat_mask = target.mask.reshape(-1)
            inactive_idx = np.flatnonzero(~flat_mask)
            if inactive_idx.size == 0:
                continue
            scores = np.abs(grad.reshape(-1)[inactive_idx])
            take = min(count, inactive_idx.size)
            if take < scores.size:
                top = np.argpartition(-scores, take - 1)[:take]
            else:
                top = np.arange(scores.size)
            for t in top:
                entries.append((float(scores[t]), index, int(inactive_idx[t])))
        entries.sort(key=lambda e: -e[0])
        grown = 0
        for _score, layer_index, pos in entries[:count]:
            target = self.masked.targets[layer_index]
            target.mask.reshape(-1)[pos] = True
            target.mark_mask_dirty()
            target.param.data.reshape(-1)[pos] = 0.0
            grown += 1
        if grown:
            self._prune_to(
                self.masked.global_sparsity() + grown / self.masked.total_size,
                allow_regrow=False,
            )
