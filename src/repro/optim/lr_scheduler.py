"""Learning-rate schedules.

The paper trains with SGD + cosine annealing; :class:`CosineAnnealingLR` is
the default in every experiment config.  Schedulers mutate ``optimizer.lr``
when :meth:`step` is called (once per epoch, as in the paper's setup, or per
iteration if constructed with the iteration count).

Checkpointing: every scheduler exposes ``state_dict()`` /
``load_state_dict()`` (``base_lr`` + ``last_epoch``), so a restored run
continues the schedule exactly.  Constructing a scheduler against an
optimizer whose ``lr`` has already been decayed (e.g. right before
restoring a checkpoint) would silently corrupt the whole schedule if
``base_lr`` were captured from ``optimizer.lr`` — pass ``base_lr``
explicitly in that situation, or call ``load_state_dict`` which restores
the true base LR.
"""

from __future__ import annotations

import math

from repro.optim.sgd import Optimizer

__all__ = ["LRScheduler", "CosineAnnealingLR"]


class LRScheduler:
    """Base class: tracks the epoch counter and the schedule's base LR.

    ``base_lr`` defaults to ``optimizer.lr`` *at construction time*; pass it
    explicitly when the optimizer's current ``lr`` is not the undecayed base
    (a restored or partially trained optimizer).
    """

    def __init__(self, optimizer: Optimizer, base_lr: float | None = None):
        self.optimizer = optimizer
        self.base_lr = float(optimizer.lr if base_lr is None else base_lr)
        self.last_epoch = -1
        self.step()  # initialize lr for epoch 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> None:
        """Advance one epoch and update the optimizer's learning rate."""
        self.last_epoch += 1
        self.optimizer.lr = self.get_lr()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (``base_lr``, ``last_epoch``)."""
        return {
            "type": type(self).__name__,
            "base_lr": self.base_lr,
            "last_epoch": self.last_epoch,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output and re-apply the current LR."""
        saved_type = state.get("type", type(self).__name__)
        if saved_type != type(self).__name__:
            raise ValueError(
                f"checkpoint scheduler is {saved_type!r}, this scheduler is {type(self).__name__!r}"
            )
        self.base_lr = float(state["base_lr"])
        self.last_epoch = int(state["last_epoch"])
        self.optimizer.lr = self.get_lr()


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``eta_min`` over ``t_max`` steps."""

    def __init__(
        self,
        optimizer: Optimizer,
        t_max: int,
        eta_min: float = 0.0,
        base_lr: float | None = None,
    ):
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        self.t_max = int(t_max)
        self.eta_min = float(eta_min)
        super().__init__(optimizer, base_lr=base_lr)

    def get_lr(self) -> float:
        progress = min(self.last_epoch, self.t_max) / self.t_max
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.eta_min + (self.base_lr - self.eta_min) * cosine
