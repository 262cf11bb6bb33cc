"""Training loop with sparse-training hooks.

The :class:`Trainer` implements the iteration structure of Algorithm 1:
forward → backward → :func:`~repro.train.loop.sparse_update`; when the
controller signals a mask-update step the optimizer step is *skipped* for
that iteration (the paper replaces the SGD update with the drop-and-grow),
and otherwise gradients outside the mask have already been zeroed so only
active weights move.

Checkpointing: :meth:`Trainer.state_dict` captures the *complete* training
state — model parameters, optimizer moments, scheduler position, controller
state (masks, coverage counters, engine RNG), epoch history, data-order and
dropout RNG bit-generator states, and, mid-epoch, the partial epoch's
progress (batches consumed plus running loss/accuracy accumulators).  A
trainer built from the same config and restored via
:meth:`load_state_dict` continues *bitwise identically* to the
uninterrupted run: ``fit`` resumes at ``len(history)`` epochs, and a
partial epoch replays its already-trained batches through the data
pipeline (advancing the shuffle/augmentation RNG exactly as the original
epoch did) without recomputing them.  See :mod:`repro.train.checkpoint`
for the on-disk format.
"""

from __future__ import annotations

import copy
import time
import warnings
from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.loader import DataLoader
from repro.metrics.accuracy import accuracy
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.sgd import Optimizer
from repro.sparse.engine import SparsityController
from repro.train.callbacks import Callback
from repro.train.history import EpochRecord, History
from repro.train.loop import TrainLoop, mask_stats, sparse_update

__all__ = ["Trainer", "evaluate_classifier"]


def evaluate_classifier(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy over a loader (eval mode, no graph recording)."""
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for inputs, targets in loader:
            logits = model(inputs)
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == targets).sum())
            total += len(targets)
    model.train(was_training)
    return correct / max(total, 1)


def _named_module_rngs(model: Module) -> list[tuple[str, np.random.Generator]]:
    """``(key, generator)`` pairs for every Generator held by a module.

    Covers stochastic layers such as :class:`~repro.nn.Dropout` whose
    draws are part of the training trajectory and therefore part of the
    resume-exact state.
    """
    pairs = []
    for name, module in model.named_modules():
        for attr, value in sorted(vars(module).items()):
            if isinstance(value, np.random.Generator):
                pairs.append((f"{name}:{attr}" if name else attr, value))
    return pairs


class Trainer(TrainLoop):
    """Epoch-based trainer for classification models.

    Parameters
    ----------
    model, optimizer, loss_fn:
        The usual triple; ``loss_fn(logits, targets) -> Tensor``.
    train_loader, test_loader:
        Data; ``test_loader=None`` skips evaluation.
    scheduler:
        Optional LR scheduler stepped once per epoch (paper setup).
    controller:
        Optional :class:`~repro.sparse.engine.SparsityController` (fixed
        mask, drop-and-grow engine, GMP, STR...).
    callbacks:
        Epoch-end hooks.
    eval_every:
        Evaluate every N epochs (always evaluates on the final epoch).
    sparse_backend:
        Optional execution backend for the controller's masked layers:
        ``"auto"``, ``"csr"`` or ``"dense"`` (see
        :mod:`repro.sparse.kernels`).  Installed at the start of ``fit``;
        non-dense modes also bind the optimizer for sparse coordinate
        updates.  ``None`` (default) leaves the model untouched.
    n_workers:
        When >= 2 (and the platform supports ``fork``), each training
        mini-batch is split across that many persistent worker processes
        (:class:`~repro.parallel.GradientWorkerPool`); the averaged
        gradient drives the optimizer and all DST decisions in this
        process, so drop/grow semantics are unchanged.  ``0``/``1`` (and
        unsupported platforms) train in-process.
    """

    STATE_KEYS = (
        "global_step model optimizer scheduler controller history rng callbacks"
        " epoch_progress"
    ).split()
    record_type = EpochRecord

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable,
        train_loader: DataLoader,
        test_loader: DataLoader | None = None,
        scheduler: LRScheduler | None = None,
        controller: SparsityController | None = None,
        callbacks: Sequence[Callback] = (),
        eval_every: int = 1,
        sparse_backend: str | None = None,
        n_workers: int = 0,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.scheduler = scheduler
        self.controller = controller
        self.callbacks = list(callbacks)
        self.eval_every = max(1, int(eval_every))
        self.sparse_backend = sparse_backend
        self.n_workers = int(n_workers)
        self.history = History()
        self.global_step = 0
        self._worker_pool = None
        # Mid-epoch bookkeeping for step-granularity checkpoints: while an
        # epoch is running this holds {"epoch", "loader_rng_epoch_start",
        # "batches_done", "losses", "accuracies"}; None between epochs.
        self._epoch_progress: dict | None = None
        # Partial-epoch state restored by load_state_dict, consumed by the
        # next _train_epoch call.
        self._pending_resume: dict | None = None
        self._restored = False

    def _open_worker_pool(self):
        if self.n_workers < 2:
            return None
        import multiprocessing as mp

        from repro.parallel import GradientWorkerPool, fork_available

        if not fork_available() or mp.current_process().daemon:
            # No fork, or already inside a sharded seed/sweep worker (which
            # cannot have children): train in-process with identical
            # semantics, one level of parallelism instead of two.
            return None
        masked = self.controller.masked if self.controller is not None else None
        return GradientWorkerPool(
            self.model, self.loss_fn, self.n_workers, masked=masked
        )

    def fit(self, epochs: int) -> History:
        """Train until ``epochs`` *total* epochs are in the history.

        On a freshly constructed trainer that is simply "train for
        ``epochs`` epochs"; on a trainer restored via
        :meth:`load_state_dict` the loop continues from the restored
        position (``len(self.history)`` completed epochs, plus any partial
        epoch), so the same ``fit(epochs)`` call finishes the original
        budget.
        """
        self._start_fit()
        self._worker_pool = self._open_worker_pool()
        self._warn_if_worker_resume_inexact()
        try:
            return self._fit(epochs)
        finally:
            if self._worker_pool is not None:
                self._worker_pool.close()
                self._worker_pool = None

    def _warn_if_worker_resume_inexact(self) -> None:
        """Checkpoint/resume + worker pool + stochastic layers: be loud.

        Gradient workers hold their own replicas of every module RNG
        (dropout streams), re-derived at fork time; those streams are not
        part of the checkpoint, so a resumed pooled run with stochastic
        layers is *not* bitwise-identical to the uninterrupted one.
        Deterministic models (no module RNG draws in forward) are exact.
        """
        if self._worker_pool is None or not _named_module_rngs(self.model):
            return
        from repro.train.checkpoint import CheckpointCallback

        checkpointing = any(
            isinstance(callback, CheckpointCallback) for callback in self.callbacks
        )
        if checkpointing or self._restored:
            warnings.warn(
                "checkpoint/resume with n_workers >= 2 is not bitwise-exact "
                "for models with stochastic layers (worker-side RNG streams "
                "are not checkpointed); see docs/checkpointing.md",
                stacklevel=3,
            )

    def _fit(self, epochs: int) -> History:
        start_epoch = len(self.history.epochs)
        for epoch in range(start_epoch, epochs):
            updates_before = self._mask_update_count()
            train_loss, train_acc, steps_per_sec = self._train_epoch(epoch)
            if self.scheduler is not None:
                self.scheduler.step()
            if self.controller is not None:
                self.controller.on_epoch_end(epoch)

            test_acc = None
            if self.test_loader is not None and (
                (epoch + 1) % self.eval_every == 0 or epoch == epochs - 1
            ):
                test_acc = evaluate_classifier(self.model, self.test_loader)

            sparsity, exploration_rate = mask_stats(self.controller)
            self._record(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    train_accuracy=train_acc,
                    test_accuracy=test_acc,
                    learning_rate=self.optimizer.lr,
                    sparsity=sparsity,
                    exploration_rate=exploration_rate,
                    steps_per_sec=steps_per_sec,
                    mask_update_ms=self._mask_update_ms(updates_before),
                )
            )
            if self._should_stop():
                break
        return self.history

    # ------------------------------------------------------------------
    def _train_epoch(self, epoch: int) -> tuple[float, float, float]:
        self.model.train()
        resume = self._pending_resume
        self._pending_resume = None
        if resume is not None and resume.get("epoch") == epoch:
            # Rewind the data pipeline to the start of the interrupted
            # epoch: the shuffle order and per-batch augmentation draws are
            # regenerated identically, and the already-trained batches are
            # replayed through the loader (advancing its RNG exactly as the
            # original epoch did) without touching the model.
            self.train_loader.rng.bit_generator.state = copy.deepcopy(
                resume["loader_rng_epoch_start"]
            )
            skip = int(resume["batches_done"])
            losses = [float(v) for v in resume["losses"]]
            accuracies = [float(v) for v in resume["accuracies"]]
        else:
            skip = 0
            losses = []
            accuracies = []
        progress = {
            "epoch": epoch,
            "loader_rng_epoch_start": copy.deepcopy(
                self.train_loader.rng.bit_generator.state
            ),
            "batches_done": skip,
            "losses": losses,
            "accuracies": accuracies,
        }
        self._epoch_progress = progress
        steps = 0
        start = time.perf_counter()
        pool = self._worker_pool
        replayed = 0
        try:
            for inputs, targets in self.train_loader:
                if replayed < skip:
                    replayed += 1
                    continue
                self.global_step += 1
                steps += 1
                if self.controller is not None:
                    self.controller.before_backward(self.global_step)
                if pool is not None:
                    # Sharded forward/backward: workers fill the shared
                    # gradient block, the parent owns the averaged gradient
                    # from here on.
                    self.model.zero_grad()
                    batch_loss, batch_acc = pool.step(inputs, targets)
                else:
                    self.model.zero_grad()
                    logits = self.model(inputs)
                    loss = self.loss_fn(logits, targets)
                    loss.backward()
                    batch_loss = loss.item()
                    batch_acc = accuracy(logits, targets)

                sparse_update(self.controller, self.optimizer, self.global_step)

                losses.append(batch_loss)
                accuracies.append(batch_acc)
                progress["batches_done"] += 1
                self._step_end(self.global_step)
        finally:
            self._epoch_progress = None
        elapsed = time.perf_counter() - start
        steps_per_sec = steps / elapsed if elapsed > 0 else 0.0
        return float(np.mean(losses)), float(np.mean(accuracies)), steps_per_sec

    def _mask_update_count(self) -> int:
        records = getattr(self.controller, "history", None)
        return len(records) if records is not None else 0

    def _mask_update_ms(self, updates_before: int) -> float | None:
        """Mean wall time of this epoch's drop-and-grow rounds, if any.

        Only controllers with a mask-update ``history`` (the DST engine)
        report it; fixed-mask / magnitude-pruning controllers leave the
        column ``None``.
        """
        records = getattr(self.controller, "history", None)
        if records is None:
            return None
        fresh = [
            duration
            for r in records[updates_before:]
            if (duration := getattr(r, "duration_ms", None)) is not None
        ]
        if not fresh:
            return None
        return float(np.mean(fresh))

    # ------------------------------------------------------------------
    # checkpointing: the loop's own entries (TrainLoop adds the rest)
    # ------------------------------------------------------------------
    def _components(self) -> dict:
        return {
            "model": self.model,
            "optimizer": self.optimizer,
            "scheduler": self.scheduler,
            "controller": self.controller,
        }

    def _loop_state(self) -> dict:
        """Data-order and dropout RNG states, plus the partial epoch mid-epoch.

        Safe to checkpoint at any point: from a step-granular callback
        mid-epoch the partial epoch's progress is included so the epoch can
        resume at the exact batch boundary.
        """
        progress = self._epoch_progress
        return {
            "rng": {
                "train_loader": copy.deepcopy(self.train_loader.rng.bit_generator.state),
                "modules": {
                    key: copy.deepcopy(rng.bit_generator.state)
                    for key, rng in _named_module_rngs(self.model)
                },
            },
            "epoch_progress": None if progress is None else _copy_progress(progress),
        }

    def _load_loop_state(self, state: dict) -> None:
        rng_state = state.get("rng", {})
        loader_state = rng_state.get("train_loader")
        if loader_state is not None:
            self.train_loader.rng.bit_generator.state = copy.deepcopy(loader_state)
        module_states = rng_state.get("modules", {})
        for key, rng in _named_module_rngs(self.model):
            if key in module_states:
                rng.bit_generator.state = copy.deepcopy(module_states[key])
        self._restored = True
        progress = state.get("epoch_progress")
        self._pending_resume = None if progress is None else _copy_progress(progress)


def _copy_progress(progress: dict) -> dict:
    """Detached copy of a partial epoch's progress (checkpoint entry)."""
    return {
        "epoch": int(progress["epoch"]),
        "batches_done": int(progress["batches_done"]),
        "loader_rng_epoch_start": copy.deepcopy(progress["loader_rng_epoch_start"]),
        "losses": np.asarray(progress["losses"], dtype=np.float64),
        "accuracies": np.asarray(progress["accuracies"], dtype=np.float64),
    }
