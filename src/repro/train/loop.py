"""The training-loop core shared by ``Trainer``, ``RLTrainer`` and ``GANTrainer``.

:func:`sparse_update` is Algorithm 1's update, written once: at a ΔT step
the drop-and-grow round replaces the optimizer step.  :class:`TrainLoop`
installs the sparse backend and binds the callbacks when ``fit`` starts,
dispatches the callback hooks, and builds and restores the shared part of
the checkpoint state.  Each trainer keeps its own ``fit`` iteration, so
the hook order differs by trainer:

* ``Trainer``: ``on_step_end`` after every batch; after an epoch's last
  batch, ``on_epoch_end(EpochRecord)``, then ``should_stop`` once.
* ``RLTrainer``, every environment step: ``on_epoch_end(EpisodeRecord)``
  if the step ended an episode, then ``on_step_end``, then ``should_stop``.
* ``GANTrainer``, every step: ``on_epoch_end(GanStepRecord)`` on logged
  steps, then ``on_step_end``, then ``should_stop``.

Every hook is looked up on its object at each call (``controller.on_backward``,
``optimizer.step``, the trainer's ``loss_fn``), so a wrapper installed with
``setattr`` mid-run sees the next call.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.sparse import kernels
from repro.train.callbacks import callback_states, restore_callback_states

__all__ = ["TrainLoop", "mask_stats", "sparse_update"]


def sparse_update(controller, optimizer, step: int) -> bool:
    """Algorithm 1's update after the backward pass of ``step``.

    The controller's ``on_backward`` hook either runs a drop-and-grow round
    and returns True, which skips the optimizer step, or masks the
    gradients; then ``optimizer.step()`` and the controller's
    ``after_step`` run.  ``controller=None`` is a plain dense step.  Returns
    True when the mask update replaced the optimizer step.
    """
    if controller is not None and controller.on_backward(step):
        return True
    optimizer.step()
    if controller is not None:
        controller.after_step(step)
    return False


def mask_stats(controller) -> tuple[float | None, float | None]:
    """``(global sparsity, exploration rate)``; None where the controller has none."""
    masked = getattr(controller, "masked", None)
    coverage = getattr(controller, "coverage", None)
    return (
        None if masked is None else masked.global_sparsity(),
        None if coverage is None else coverage.exploration_rate(),
    )


class TrainLoop:
    """Callback dispatch and checkpoint state shared by the trainers.

    A subclass sets ``callbacks`` (a list), ``history`` (a list or a
    :class:`~repro.train.History` of ``record_type`` dataclasses) and
    ``global_step``, and defines:

    * ``_components()`` — name → object with its own ``state_dict`` pair
      (networks, optimizers, scheduler, controllers, ...), ``None`` for an
      absent optional part.  A ``"controller"`` part gets the
      ``sparse_backend``.
    * ``_loop_state()`` / ``_load_loop_state(state)`` — the loop's own
      entries: extra counters, RNG states, the partial epoch or episode.

    ``state_dict`` adds ``global_step``, ``history`` and ``callbacks`` and
    lays the keys out in ``STATE_KEYS`` order, so each trainer's checkpoint
    document stays as earlier releases wrote it.
    """

    STATE_KEYS: list[str]
    record_type: type
    sparse_backend: str | None = None

    def _start_fit(self) -> None:
        components = self._components()
        kernels.install_sparse_backend(
            components.get("controller"), components.get("optimizer"), self.sparse_backend
        )
        for callback in self.callbacks:
            callback.bind(self)

    def _record(self, record) -> None:
        """Append a history record and fire ``on_epoch_end`` with it."""
        self.history.append(record)
        for callback in self.callbacks:
            callback.on_epoch_end(record)

    def _step_end(self, step: int) -> None:
        for callback in self.callbacks:
            callback.on_step_end(step)

    def _should_stop(self) -> bool:
        return any(callback.should_stop() for callback in self.callbacks)

    def state_dict(self) -> dict:
        """Complete, serializable training state (resume-exact)."""
        entries = {
            "global_step": self.global_step,
            "history": [asdict(record) for record in self.history],
            "callbacks": callback_states(self.callbacks),
            **self._loop_state(),
        }
        for name, part in self._components().items():
            entries[name] = None if part is None else part.state_dict()
        return {key: entries[key] for key in self.STATE_KEYS}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into a trainer built from the same config."""
        components = self._components()
        for name, part in components.items():
            if (state[name] is None) != (part is None):
                raise ValueError(f"checkpoint and trainer disagree on {name} presence")
        for name, part in components.items():
            if part is not None:
                part.load_state_dict(state[name])
        self.global_step = int(state["global_step"])
        records = [self.record_type(**record) for record in state["history"]]
        self.history = type(self.history)(records)
        self._load_loop_state(state)
        restore_callback_states(self.callbacks, state.get("callbacks", []))
