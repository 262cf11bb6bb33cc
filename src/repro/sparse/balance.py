"""Cross-layer density balancing (Parger et al., gradient-mass style).

"Gradient-based Weight Density Balancing for Robust Dynamic Sparse
Training" observes that a *fixed* per-layer density split (uniform, ER,
ERK) leaves the layer allocation frozen at whatever the initializer
guessed, while the training signal — how much gradient mass each layer
carries — says where capacity is actually needed.  The fix is to treat the
global non-zero count as one budget and reallocate it across layers at
every mask update, rate-limited so the topology never jumps.

:class:`GradientMassRebalancer` implements that policy on top of the
:class:`~repro.sparse.budget.DensityBudget` API: at each ΔT it smooths the
per-layer dense-gradient mass with an EMA, computes each layer's desired
share of the global budget, clips the shift per layer to ``max_shift`` of
its current allocation, quantizes to the layer's drop/grow unit, and
repairs the total so the global budget is conserved *exactly* (in
elements) — the engine then realizes the new allocations as asymmetric
drop/grow counts.

:class:`DensityBalanceController` is the packaged controller: a
:class:`~repro.sparse.engine.DynamicSparseEngine` with RigL-style rules
and the rebalancer attached.  Started from a *uniform* split it recovers
an ERK-like profile from the gradient signal alone — the comparison the
``rebalance`` bench section surfaces.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.budget import DensityBudget
from repro.sparse.engine import DynamicSparseEngine
from repro.sparse.growers import DropRule, GradientGrowth, GrowthRule, MagnitudeDrop
from repro.sparse.masked import MaskedModel
from repro.sparse.schedule import TrainingSchedule

__all__ = ["GradientMassRebalancer", "DensityBalanceController"]


class GradientMassRebalancer:
    """Reallocate a global budget across layers by EMA'd gradient mass.

    Parameters
    ----------
    max_shift:
        Per-round rate limit: a layer's allocation moves by at most this
        fraction of its current allocation (Parger's robustness guard — a
        noisy round cannot gut a layer).
    ema_beta:
        Smoothing for the per-layer mean-|grad| signal across rounds.
    """

    def __init__(self, max_shift: float = 0.1, ema_beta: float = 0.9):
        if not 0.0 < max_shift <= 1.0:
            raise ValueError(f"max_shift must be in (0, 1], got {max_shift}")
        if not 0.0 <= ema_beta < 1.0:
            raise ValueError(f"ema_beta must be in [0, 1), got {ema_beta}")
        self.max_shift = float(max_shift)
        self.ema_beta = float(ema_beta)
        self._ema: dict[str, float] = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    def _update_signal(self, masked: MaskedModel) -> dict[str, float]:
        """EMA of each layer's mean absolute dense gradient."""
        beta = self.ema_beta if self._ema else 0.0
        for target in masked.targets:
            grad = target.param.grad
            mass = float(np.abs(grad).mean()) if grad is not None else 0.0
            self._ema[target.name] = beta * self._ema.get(target.name, 0.0) + (
                1.0 - beta
            ) * mass
        return self._ema

    def rebalance(
        self, masked: MaskedModel, budget: DensityBudget, step: int
    ) -> dict[str, int]:
        """Mutate ``budget`` toward the gradient-mass shares; return deltas.

        The returned dict maps layer name to the applied element delta
        (positive = allocation gained).  ``sum(deltas.values()) == 0``
        always: the repair pass walks units between layers until the total
        matches, and falls back to undoing shifts if the layers' unit sizes
        cannot express the residual.
        """
        signal = self._update_signal(masked)
        self.rounds += 1
        names = [t.name for t in masked.targets if t.name in budget]
        total = budget.total
        weight_sum = sum(signal[n] * budget.capacity_of(n) for n in names)
        if weight_sum <= 0.0:
            return {n: 0 for n in names}

        proposed: dict[str, int] = {}
        for name in names:
            alloc = budget.allocation(name)
            unit = budget.unit(name)
            desired = signal[name] * budget.capacity_of(name) / weight_sum * total
            limit = self.max_shift * alloc
            delta = float(np.clip(desired - alloc, -limit, limit))
            # Quantize toward zero, then clamp to [one unit, capacity].
            delta_units = int(delta / unit)
            new_alloc = alloc + delta_units * unit
            new_alloc = max(unit, min(budget.capacity_of(name), new_alloc))
            proposed[name] = new_alloc

        # Repair: move single units between layers until the total is exact.
        residual = total - sum(proposed.values())
        for _ in range(budget.capacity):
            if residual == 0:
                break
            candidates = []
            for name in names:
                unit = budget.unit(name)
                if residual > 0:
                    if unit <= residual and proposed[name] + unit <= budget.capacity_of(name):
                        candidates.append((signal[name], name))
                else:
                    if unit <= -residual and proposed[name] - unit >= unit:
                        candidates.append((-signal[name], name))
            if not candidates:
                # Units cannot express the residual (mixed granularities):
                # give up on this round's shift rather than breaking the
                # global budget.
                return {n: 0 for n in names}
            _, name = max(candidates)
            step_units = budget.unit(name) if residual > 0 else -budget.unit(name)
            proposed[name] += step_units
            residual -= step_units

        deltas = {}
        for name in names:
            deltas[name] = proposed[name] - budget.allocation(name)
            budget.set_allocation(name, proposed[name])
        return deltas

    # ------------------------------------------------------------------
    # checkpointing (EMA and round counter evolve across the run)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"ema": dict(self._ema), "rounds": int(self.rounds)}

    def load_state_dict(self, state: dict) -> None:
        self._ema = {str(name): float(value) for name, value in state["ema"].items()}
        self.rounds = int(state["rounds"])


class DensityBalanceController(DynamicSparseEngine):
    """Drop-and-grow engine with Parger-style cross-layer rebalancing.

    A :class:`DynamicSparseEngine` whose every mask update starts with a
    :class:`GradientMassRebalancer` pass: the global budget is conserved
    exactly while per-layer allocations chase the gradient-mass shares,
    rate-limited by ``max_shift``.  Defaults to RigL's rules
    (gradient growth, magnitude drop).
    """

    def __init__(
        self,
        masked: MaskedModel,
        schedule: TrainingSchedule,
        budget: DensityBudget | None = None,
        *,
        growth_rule: GrowthRule | None = None,
        drop_rule: DropRule | None = None,
        optimizer=None,
        rng: np.random.Generator | None = None,
        max_shift: float = 0.1,
        balance_ema_beta: float = 0.9,
    ):
        super().__init__(
            masked,
            growth_rule if growth_rule is not None else GradientGrowth(),
            drop_rule=drop_rule if drop_rule is not None else MagnitudeDrop(),
            optimizer=optimizer,
            rng=rng,
            schedule=schedule,
            budget=budget,
            rebalancer=GradientMassRebalancer(max_shift=max_shift, ema_beta=balance_ema_beta),
        )
