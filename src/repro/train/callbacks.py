"""Trainer callbacks (epoch- and step-granularity hooks)."""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

from repro.train.history import EpochRecord

__all__ = [
    "Callback",
    "LambdaCallback",
    "EarlyStopping",
    "callback_states",
    "restore_callback_states",
]


class Callback:
    """Base callback: override any subset of hooks.

    ``Trainer``, ``RLTrainer`` and ``GANTrainer`` all dispatch these hooks
    through :class:`repro.train.loop.TrainLoop`, whose module docstring
    gives each trainer's hook order.  ``bind`` is called once at the start
    of ``fit`` with the trainer itself, so callbacks that need training
    state (e.g. the checkpoint callback) can reach it without threading it
    through every hook.  ``state_dict``/``load_state_dict`` let a
    callback's evolving state survive a checkpoint/restore cycle; return
    ``None`` (the default) for stateless callbacks.
    """

    def bind(self, trainer) -> None:
        """Called by the trainer's ``fit`` before training starts."""

    def on_step_end(self, step: int) -> None:
        """Called after every batch, environment step or GAN step (``step`` is global)."""

    def on_epoch_end(self, record: EpochRecord) -> None:
        """Called with each new history record (epoch, episode or logged GAN step)."""

    def should_stop(self) -> bool:
        """Return True to stop training early (asked per epoch, or per RL/GAN step)."""
        return False

    def state_dict(self) -> dict | None:
        """Serializable snapshot of the callback's state (None = stateless)."""

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""


class LambdaCallback(Callback):
    """Wrap a plain function as an epoch-end callback."""

    def __init__(self, on_epoch_end: Callable[[EpochRecord], None]):
        self._fn = on_epoch_end

    def on_epoch_end(self, record: EpochRecord) -> None:
        self._fn(record)


class EarlyStopping(Callback):
    """Stop when test accuracy has not improved for ``patience`` epochs."""

    def __init__(self, patience: int = 10, min_delta: float = 0.0):
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best = -float("inf")
        self.stale = 0

    def on_epoch_end(self, record: EpochRecord) -> None:
        if record.test_accuracy is None:
            return
        if record.test_accuracy > self.best + self.min_delta:
            self.best = record.test_accuracy
            self.stale = 0
        else:
            self.stale += 1

    def should_stop(self) -> bool:
        return self.stale >= self.patience

    def state_dict(self) -> dict:
        return {"best": self.best, "stale": self.stale}

    def load_state_dict(self, state: dict) -> None:
        self.best = float(state["best"])
        self.stale = int(state["stale"])


def callback_states(callbacks: Sequence[Callback]) -> list[dict]:
    """Each callback's checkpoint entry: its type name and its state."""
    return [{"type": type(cb).__name__, "state": cb.state_dict()} for cb in callbacks]


def restore_callback_states(callbacks: Sequence[Callback], saved: Sequence[dict]) -> None:
    """Restore :func:`callback_states` output onto ``callbacks`` by position.

    A *stateful* entry that finds no callback of its type at its position is
    configuration drift worth shouting about: it is skipped with a warning.
    Stateless mismatches (e.g. a dropped ``CheckpointCallback``) are harmless.
    """
    for index, entry in enumerate(saved):
        if entry["state"] is None:
            continue
        callback = callbacks[index] if index < len(callbacks) else None
        if callback is None or type(callback).__name__ != entry["type"]:
            found = "no callback" if callback is None else repr(type(callback).__name__)
            warnings.warn(
                f"checkpoint callback state of type {entry['type']!r} at "
                f"position {index} was not restored ({found} there in the "
                "resumed trainer); construct the resumed trainer with the "
                "same callback list",
                stacklevel=3,
            )
            continue
        callback.load_state_dict(entry["state"])
