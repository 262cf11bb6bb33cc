"""Per-weight trajectory recording (the raw data behind Figure 1a/1b).

Figure 1 plots individual weight trajectories: a weight whose gradient is
small at a mask update (red line — ignored by greedy growth) against one
with a large gradient (blue line — grown), and shows the red weight
becoming important later under DST-EE.  :class:`WeightTrajectoryRecorder`
captures exactly that data: per selected coordinate, the weight value,
dense gradient and active state at every observed step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.masked import MaskedModel

__all__ = ["TrajectoryPoint", "WeightTrajectory", "WeightTrajectoryRecorder"]


@dataclass
class TrajectoryPoint:
    """One observation of one weight."""

    step: int
    value: float
    gradient: float
    active: bool


@dataclass
class WeightTrajectory:
    """The full recorded history of one weight coordinate."""

    layer: str
    flat_index: int
    points: list[TrajectoryPoint] = field(default_factory=list)

    @property
    def steps(self) -> np.ndarray:
        return np.array([p.step for p in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])

    @property
    def gradients(self) -> np.ndarray:
        return np.array([p.gradient for p in self.points])

    @property
    def active_mask(self) -> np.ndarray:
        return np.array([p.active for p in self.points])

    def activation_step(self) -> int | None:
        """First observed step at which the weight was active (None if never)."""
        for point in self.points:
            if point.active:
                return point.step
        return None


class WeightTrajectoryRecorder:
    """Record (value, gradient, active) trajectories of chosen coordinates.

    Parameters
    ----------
    masked:
        The masked model being trained.
    selection:
        Mapping ``layer name -> flat indices`` of the coordinates to track.
        Use :meth:`select_by_gradient` to pick Figure-1-style pairs.
    """

    def __init__(self, masked: MaskedModel, selection: dict[str, np.ndarray]):
        self.masked = masked
        by_name = {t.name: t for t in masked.targets}
        self.trajectories: list[WeightTrajectory] = []
        for layer, indices in selection.items():
            if layer not in by_name:
                raise KeyError(f"unknown masked layer {layer!r}")
            size = by_name[layer].size
            for index in np.asarray(indices, dtype=np.int64).reshape(-1):
                if not 0 <= index < size:
                    raise IndexError(
                        f"flat index {index} out of range for {layer!r} (size {size})"
                    )
                self.trajectories.append(WeightTrajectory(layer, int(index)))

    @classmethod
    def select_by_gradient(
        cls,
        masked: MaskedModel,
        layer: str,
        n_small: int = 1,
        n_large: int = 1,
    ) -> "WeightTrajectoryRecorder":
        """Pick inactive weights with the smallest/largest |grad| in ``layer``.

        Requires fresh dense gradients.  The small-gradient picks are
        Figure 1's red lines (ignored by greedy growth at this instant);
        the large-gradient picks are the blue lines.
        """
        target = next(t for t in masked.targets if t.name == layer)
        grad = target.param.grad
        if grad is None:
            raise RuntimeError("select_by_gradient requires fresh dense gradients")
        flat_grad = np.abs(grad.reshape(-1))
        inactive = np.flatnonzero(~target.mask.reshape(-1))
        if inactive.size < n_small + n_large:
            raise ValueError(
                f"layer {layer!r} has only {inactive.size} inactive weights"
            )
        order = np.argsort(flat_grad[inactive])
        chosen = np.concatenate([
            inactive[order[:n_small]],            # smallest |grad|
            inactive[order[-n_large:]],           # largest |grad|
        ])
        return cls(masked, {layer: chosen})

    def observe(self, step: int) -> None:
        """Record the tracked coordinates (call once per step or per round)."""
        by_name = {t.name: t for t in self.masked.targets}
        for trajectory in self.trajectories:
            target = by_name[trajectory.layer]
            flat_w = target.param.data.reshape(-1)
            flat_m = target.mask.reshape(-1)
            grad = target.param.grad
            grad_value = (
                float(grad.reshape(-1)[trajectory.flat_index]) if grad is not None else 0.0
            )
            trajectory.points.append(
                TrajectoryPoint(
                    step=step,
                    value=float(flat_w[trajectory.flat_index]),
                    gradient=grad_value,
                    active=bool(flat_m[trajectory.flat_index]),
                )
            )
