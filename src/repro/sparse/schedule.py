"""Drop-fraction and mask-update schedules.

RigL (and the paper, which keeps RigL's training recipe) anneal the fraction
of weights moved per drop-and-grow step with a cosine schedule and stop
updating the mask after a fixed fraction of training.  MEST instead decays
the rate linearly.  All variants live here so the engine stays agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DropFractionSchedule",
    "ConstantSchedule",
    "CosineDecaySchedule",
    "LinearDecaySchedule",
    "UpdateSchedule",
    "TrainingSchedule",
    "make_drop_schedule",
]


class DropFractionSchedule:
    """Base: maps a training step to a drop fraction in [0, 1)."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantSchedule(DropFractionSchedule):
    """Fixed drop fraction (SET's behaviour)."""

    def __init__(self, fraction: float):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"drop fraction must be in (0, 1), got {fraction}")
        self.fraction = float(fraction)

    def __call__(self, step: int) -> float:
        return self.fraction


class CosineDecaySchedule(DropFractionSchedule):
    """RigL's ``f(t) = f0/2 · (1 + cos(π t / T))`` annealing."""

    def __init__(self, fraction: float, total_steps: int):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"drop fraction must be in (0, 1), got {fraction}")
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        self.fraction = float(fraction)
        self.total_steps = int(total_steps)

    def __call__(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        return self.fraction * 0.5 * (1.0 + math.cos(math.pi * progress))


class LinearDecaySchedule(DropFractionSchedule):
    """MEST-style linear decay from ``fraction`` to ``end_fraction``."""

    def __init__(self, fraction: float, total_steps: int, end_fraction: float = 0.0):
        self.fraction = float(fraction)
        self.end_fraction = float(end_fraction)
        self.total_steps = int(total_steps)

    def __call__(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        return self.fraction + (self.end_fraction - self.fraction) * progress


class UpdateSchedule:
    """When mask updates happen: every ``delta_t`` steps until ``stop_step``.

    Following Algorithm 1 ("t mod ΔT == 0 and t < T_end") with RigL's
    convention of freezing the topology for the last part of training
    (``stop_fraction`` of the total budget, default 0.75).
    """

    def __init__(self, delta_t: int, total_steps: int, stop_fraction: float = 0.75):
        if delta_t <= 0:
            raise ValueError(f"delta_t must be positive, got {delta_t}")
        if not 0.0 < stop_fraction <= 1.0:
            raise ValueError(f"stop_fraction must be in (0, 1], got {stop_fraction}")
        self.delta_t = int(delta_t)
        self.total_steps = int(total_steps)
        self.stop_step = int(stop_fraction * total_steps)

    def is_update_step(self, step: int) -> bool:
        """True when ``step`` is a drop-and-grow step."""
        return step > 0 and step % self.delta_t == 0 and step < self.stop_step


@dataclass(frozen=True)
class TrainingSchedule:
    """Every *when/how-much* knob of a sparsity controller, in one value.

    Part of the unified controller API (see docs/controllers.md): instead
    of each controller growing its own ``total_steps``/``delta_t``/
    ``drop_fraction``/... kwargs, every controller accepts
    ``(masked, schedule, budget, ...)``.  Density lives in the
    :class:`~repro.sparse.budget.DensityBudget`; timing lives here.

    ``t_start_fraction``/``t_end_fraction`` are only consumed by the
    dense-to-sparse schedules (GMP/STR); the drop-and-grow engine uses
    ``drop_fraction``/``drop_schedule``/``stop_fraction``.
    """

    total_steps: int
    delta_t: int = 100
    drop_fraction: float = 0.3
    drop_schedule: str = "cosine"
    stop_fraction: float = 0.75
    t_start_fraction: float = 0.1
    t_end_fraction: float = 0.7

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if self.delta_t <= 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")

    def update_schedule(self) -> UpdateSchedule:
        return UpdateSchedule(self.delta_t, self.total_steps, self.stop_fraction)

    def drop_fraction_schedule(self) -> DropFractionSchedule:
        return make_drop_schedule(self.drop_schedule, self.drop_fraction, self.total_steps)

    @property
    def t_start(self) -> int:
        return int(self.t_start_fraction * self.total_steps)

    @property
    def t_end(self) -> int:
        return int(self.t_end_fraction * self.total_steps)


def make_drop_schedule(kind: str, fraction: float, total_steps: int) -> DropFractionSchedule:
    """Build a named schedule (``"constant"``, ``"cosine"``, ``"linear"``)."""
    kind = kind.lower()
    if kind == "constant":
        return ConstantSchedule(fraction)
    if kind == "cosine":
        return CosineDecaySchedule(fraction, total_steps)
    if kind == "linear":
        return LinearDecaySchedule(fraction, total_steps)
    raise ValueError(f"unknown drop schedule {kind!r}")
