"""Experiment cells and the workload-agnostic seed fan-out and sweep.

:func:`run_image_classification` is what every Table-I/II bench invokes.
It wires together the data loaders, optimizer + cosine schedule (the
paper's recipe), the method from :mod:`repro.experiments.registry`, and
FLOPs accounting, and returns a :class:`RunResult` with everything the
tables report.

:func:`run_multi_seed` and :func:`run_sweep` serve every workload — image,
RL (:func:`~repro.experiments.rl.run_rl`), GAN
(:func:`~repro.experiments.gan.run_gan`) and char-LM
(:func:`~repro.experiments.lm.run_lm`).  Each takes the workload's run
function and aggregates ``result.final_accuracy``, the score every result
type exposes, through one helper, :func:`mean_std`.

Fault tolerance: pass ``checkpoint_dir`` to write resume-exact training
checkpoints (:mod:`repro.train.checkpoint`) during the run, and
``resume_from`` to continue a killed run bitwise-identically.  At the grid
level, :func:`run_sweep` with ``checkpoint_dir`` records every completed
cell's result on disk (plus a ``manifest.json``); rerunning with
``resume=True`` skips completed cells and resumes partial ones from their
latest checkpoint, producing the same :class:`SweepReport` an uninterrupted
sweep would have.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.data.dataset import ClassificationData
from repro.data.loader import DataLoader
from repro.flops import profile_model, sparse_inference_flops, training_flops_multiplier
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.optim import SGD, CosineAnnealingLR
from repro.parallel import run_sharded
from repro.train import Trainer
from repro.train.callbacks import Callback
from repro.train.checkpoint import (
    CheckpointCallback,
    atomic_write_bytes,
    latest_checkpoint,
    load_training_checkpoint,
)
from repro.experiments.registry import SweepCell, build_method

__all__ = [
    "RunResult",
    "CellOutcome",
    "SweepReport",
    "cell_key",
    "mean_std",
    "run_image_classification",
    "run_multi_seed",
    "run_sweep",
]


@dataclass
class RunResult:
    """Outcome of one training run."""

    method: str
    dataset: str
    sparsity: float
    final_accuracy: float
    best_accuracy: float
    train_loss: float
    epochs: int
    seconds: float
    exploration_rate: float | None
    actual_sparsity: float | None
    inference_flops_multiplier: float
    training_flops_multiplier: float
    history: object = field(repr=False, default=None)
    masks: dict = field(repr=False, default_factory=dict)
    # Final per-layer densities from the DensityBudget (the controller's
    # source of truth) — under cross-layer rebalancing these drift from the
    # construction-time ER/ERK split, and this is where the drift surfaces.
    final_layer_densities: dict = field(repr=False, default_factory=dict)
    # Populated only with ``keep_model=True`` (serial runs): the trained
    # model and its MaskedModel wrapper, for compile-and-export pipelines
    # (see repro.serve).  Sweep workers never ship these over pipes.
    model: object = field(repr=False, default=None, compare=False)
    masked: object = field(repr=False, default=None, compare=False)


class _DensitySnapshotCallback(Callback):
    """Per-epoch layer-density snapshots (training-FLOPs accounting).

    Stateful so that a resumed run reports the same training-FLOPs
    multiplier as the uninterrupted one: the snapshots of pre-interruption
    epochs ride along in the training checkpoint.
    """

    def __init__(self, masked):
        self._masked = masked
        self.snapshots: list[dict[str, float]] = []

    def on_epoch_end(self, record) -> None:
        if self._masked is not None:
            self.snapshots.append({t.name: t.density for t in self._masked.targets})

    def state_dict(self) -> dict:
        return {"snapshots": [dict(s) for s in self.snapshots]}

    def load_state_dict(self, state: dict) -> None:
        self.snapshots = [dict(s) for s in state["snapshots"]]


def _resolve_resume_path(resume_from) -> pathlib.Path | None:
    """A checkpoint file, the latest checkpoint of a directory, or None.

    A directory without checkpoints — including a directory that does not
    exist yet — resolves to None (fresh start): this is what lets a
    resumed sweep treat never-started cells uniformly.  An explicitly
    named checkpoint *file* (``*.npz``) that is missing raises instead of
    silently restarting from scratch.
    """
    if resume_from is None:
        return None
    resume_from = pathlib.Path(resume_from)
    if resume_from.is_dir():
        return latest_checkpoint(resume_from)
    if resume_from.exists():
        return resume_from
    if resume_from.suffix == ".npz":
        raise FileNotFoundError(f"resume checkpoint not found: {resume_from}")
    return None


def run_image_classification(
    method: str,
    model_factory: Callable[[int], Module],
    data: ClassificationData,
    *,
    sparsity: float = 0.9,
    epochs: int = 5,
    batch_size: int = 64,
    lr: float = 0.1,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    delta_t: int = 20,
    drop_fraction: float = 0.3,
    c: float = 1e-3,
    epsilon: float = 1.0,
    distribution: str = "erk",
    block_size: int | None = None,
    sparse_backend: str | None = None,
    seed: int = 0,
    eval_every: int = 1,
    n_workers: int = 0,
    callbacks: Sequence[Callback] = (),
    checkpoint_dir=None,
    checkpoint_every_epochs: int | None = 1,
    checkpoint_every_steps: int | None = None,
    checkpoint_keep_last: int | None = None,
    resume_from=None,
    keep_model: bool = False,
) -> RunResult:
    """Train one method on one dataset and return its table row.

    ``model_factory(seed)`` must build a freshly initialized model; the same
    seed also drives data order and mask randomness so runs are reproducible.

    ``checkpoint_dir`` enables resume-exact checkpointing during training
    (cadence via ``checkpoint_every_epochs``/``checkpoint_every_steps``,
    retention via ``checkpoint_keep_last``).  ``resume_from`` — a checkpoint
    file or a directory holding checkpoints — restores the full training
    state before training continues; the resumed run's trajectory, final
    masks and coverage counters are bitwise identical to an uninterrupted
    run of the same configuration.
    """
    start = time.time()
    rng = np.random.default_rng(seed)
    model = model_factory(seed)
    train_loader = DataLoader(
        data.train,
        batch_size=batch_size,
        shuffle=True,
        rng=np.random.default_rng(seed + 1),
    )
    test_loader = DataLoader(data.test, batch_size=256)
    steps_per_epoch = len(train_loader)
    total_steps = epochs * steps_per_epoch

    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)

    saliency_batches = None
    if method in ("snip", "grasp"):
        saliency_loader = DataLoader(
            data.train,
            batch_size=batch_size,
            shuffle=True,
            rng=np.random.default_rng(seed + 2),
        )
        saliency_batches = [next(iter(saliency_loader))]

    setup = build_method(
        method,
        model,
        optimizer,
        sparsity,
        total_steps,
        distribution=distribution,
        delta_t=delta_t,
        drop_fraction=drop_fraction,
        c=c,
        epsilon=epsilon,
        loss_fn=cross_entropy,
        saliency_batches=saliency_batches,
        input_shape=data.input_shape,
        rng=rng,
        block_size=block_size,
    )

    # Track density snapshots per epoch for training-FLOPs accounting.
    # Dense-to-sparse methods shrink the budget over time; rebalancing
    # controllers keep the global budget constant but move it across layers.
    snapshot_callback = _DensitySnapshotCallback(setup.masked)
    all_callbacks: list[Callback] = [snapshot_callback, *callbacks]
    if checkpoint_dir is not None:
        all_callbacks.append(
            CheckpointCallback(
                checkpoint_dir,
                every_n_epochs=checkpoint_every_epochs,
                every_n_steps=checkpoint_every_steps,
                keep_last=checkpoint_keep_last,
            )
        )

    trainer = Trainer(
        model,
        optimizer,
        cross_entropy,
        train_loader,
        test_loader,
        scheduler=scheduler,
        controller=setup.controller,
        callbacks=all_callbacks,
        eval_every=eval_every,
        sparse_backend=sparse_backend,
        n_workers=n_workers,
    )
    resume_path = _resolve_resume_path(resume_from)
    if resume_path is not None:
        trainer.load_state_dict(load_training_checkpoint(resume_path))
    history = trainer.fit(epochs)
    if setup.finalize is not None:
        setup.finalize()

    final_acc = history.final_test_accuracy or 0.0
    # STR's finalize may change the pattern; re-evaluate to report honestly.
    if setup.finalize is not None and test_loader is not None:
        from repro.train.trainer import evaluate_classifier

        final_acc = evaluate_classifier(model, test_loader)

    profile = profile_model(model_factory(seed), data.input_shape)
    if setup.masked is not None:
        masks = setup.masked.masks_snapshot()
        _, infer_mult = sparse_inference_flops(profile, masks)
        density_snapshots = snapshot_callback.snapshots
        train_mult = training_flops_multiplier(
            profile,
            density_snapshots if density_snapshots else masks,
        )
        actual_sparsity = setup.masked.global_sparsity()
        budget = getattr(setup.masked, "budget", None)
        final_layer_densities = (
            {name: budget.density(name) for name in budget.names} if budget is not None else {}
        )
    else:
        masks = {}
        infer_mult = 1.0
        train_mult = 1.0
        actual_sparsity = None
        final_layer_densities = {}

    coverage = getattr(setup.controller, "coverage", None)
    return RunResult(
        method=method,
        dataset=data.name,
        sparsity=sparsity,
        final_accuracy=final_acc,
        best_accuracy=history.best_test_accuracy or final_acc,
        train_loss=history.epochs[-1].train_loss if len(history) else float("nan"),
        epochs=epochs,
        seconds=time.time() - start,
        exploration_rate=coverage.exploration_rate() if coverage else None,
        actual_sparsity=actual_sparsity,
        inference_flops_multiplier=infer_mult,
        training_flops_multiplier=train_mult,
        history=history,
        masks=masks,
        final_layer_densities=final_layer_densities,
        model=model if keep_model else None,
        masked=setup.masked if keep_model else None,
    )


def mean_std(scores: Iterable[float | None]) -> tuple[float | None, float | None]:
    """(mean, std) of the scores that exist, or ``(None, None)`` if none do.

    ``None`` marks a run without a score — an RL run too short to finish
    one episode — and is skipped rather than poisoning the row with NaN.
    """
    present = np.array([score for score in scores if score is not None], dtype=np.float64)
    if not present.size:
        return None, None
    return float(present.mean()), float(present.std())


def run_multi_seed(
    run: Callable,
    *args,
    seeds: Sequence[int] = (0, 1, 2),
    n_proc: int | None = None,
    **kwargs,
) -> tuple[float | None, float | None, list]:
    """Run ``run(*args, seed=s, **kwargs)`` per seed; return (mean, std, results).

    Mirrors the paper's "(mean ± std) over three random seeds" protocol for
    any workload: ``run`` is :func:`run_image_classification`,
    :func:`~repro.experiments.rl.run_rl`, :func:`~repro.experiments.lm.run_lm`
    or :func:`~repro.experiments.gan.run_gan`, and the mean/std are over
    each result's ``final_accuracy`` (accuracy, final average return,
    next-token accuracy or mode coverage) via :func:`mean_std`.

    Seeds are independent runs, so they fan out across ``n_proc`` worker
    processes (default: the ``REPRO_NPROC`` environment variable; 1 =
    serial).  Every seed computes exactly what the serial path computes —
    each run re-seeds all of its randomness from its own ``seed`` — and a
    failed seed raises, as it would serially (in-process runs abort on the
    first failure with the original exception; sharded runs raise after the
    other seeds finish).
    """
    jobs = [partial(run, *args, seed=seed, **kwargs) for seed in seeds]
    results = [shard.unwrap() for shard in run_sharded(jobs, n_proc=n_proc, fail_fast=True)]
    mean, std = mean_std(result.final_accuracy for result in results)
    return mean, std, results


@dataclass
class CellOutcome:
    """One sweep cell's result — or its failure report (crash isolation).

    ``cached`` marks outcomes served from a sweep checkpoint directory on
    resume (the cell was completed by an earlier, interrupted sweep and was
    not re-run).
    """

    cell: "SweepCell"
    result: RunResult | None
    error: str | None = None
    seconds: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """All outcomes of a sharded sweep plus paper-style aggregation."""

    outcomes: list[CellOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[CellOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def aggregate(self) -> list[dict]:
        """Group over seeds: one ``mean ± std`` row per distinct cell.

        Rows preserve first-appearance order of the (method, model,
        dataset, sparsity) groups, matching the serial table layout.  The
        mean/std come from :func:`mean_std`, exactly as in
        :func:`run_multi_seed`.
        """
        groups: dict[tuple, list[CellOutcome]] = {}
        for outcome in self.outcomes:
            cell = outcome.cell
            key = (cell.method, cell.model, cell.dataset, cell.sparsity)
            groups.setdefault(key, []).append(outcome)
        rows = []
        for (method, model, dataset, sparsity), members in groups.items():
            scores = [o.result.final_accuracy for o in members if o.ok]
            mean, std = mean_std(scores)
            rows.append(
                {
                    "method": method,
                    "model": model,
                    "dataset": dataset,
                    "sparsity": sparsity,
                    "mean_accuracy": mean,
                    "std_accuracy": std,
                    "seeds_ok": len(scores),
                    "seeds_failed": sum(1 for o in members if not o.ok),
                }
            )
        return rows


def cell_key(cell: "SweepCell") -> str:
    """Stable, filesystem-safe identifier of one sweep cell."""
    return (
        f"{cell.method}_{cell.model}_{cell.dataset}"
        f"_s{cell.sparsity:g}_seed{cell.seed}"
    ).replace("/", "-")


def _config_fingerprint(run_kwargs: dict) -> str:
    """Digest of the sweep's per-cell run configuration.

    Guards cached cell results and checkpoints against a resumed sweep
    whose arguments changed (different epochs, lr, delta_t, ...): a
    mismatch invalidates the cell instead of silently serving stale
    science.  Non-JSON values (custom callbacks, functions) contribute
    only their type name — they cannot be fingerprinted stably across
    processes.
    """

    def jsonable(value):
        try:
            json.dumps(value)
            return value
        except TypeError:
            return f"<{type(value).__name__}>"

    payload = json.dumps(
        {
            key: jsonable(value)
            for key, value in run_kwargs.items()
            # Checkpoint cadence/retention doesn't affect the science; a
            # resumed sweep may legitimately change it.
            if not key.startswith("checkpoint_")
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _invalidate_stale_cell(cell_dir: pathlib.Path, fingerprint: str) -> None:
    """Drop a cell's records/checkpoints written under a different config."""
    marker = cell_dir / "config.json"
    if marker.exists():
        try:
            stored = json.loads(marker.read_text()).get("fingerprint")
        except (ValueError, OSError):
            stored = None
        if stored == fingerprint:
            return
        (cell_dir / "result.pkl").unlink(missing_ok=True)
        for stale in cell_dir.glob("ckpt-*.npz"):
            stale.unlink(missing_ok=True)
    atomic_write_bytes(marker, json.dumps({"fingerprint": fingerprint}).encode())


def _load_cached_outcome(
    cell: "SweepCell",
    cell_dir: pathlib.Path,
    fingerprint: str,
) -> CellOutcome | None:
    record_path = cell_dir / "result.pkl"
    if not record_path.exists():
        return None
    marker = cell_dir / "config.json"
    try:
        stored = json.loads(marker.read_text()).get("fingerprint")
    except (ValueError, OSError):
        return None  # unknown provenance: re-run the cell
    if stored != fingerprint:
        return None  # recorded under different arguments: re-run
    try:
        with open(record_path, "rb") as handle:
            result: RunResult = pickle.load(handle)
    except Exception:
        return None  # torn/corrupt record: re-run the cell
    return CellOutcome(cell=cell, result=result, seconds=result.seconds, cached=True)


def _write_manifest(checkpoint_dir: pathlib.Path, outcomes: list[CellOutcome]) -> None:
    manifest = {
        "cells": {
            cell_key(outcome.cell): {
                "status": "ok" if outcome.ok else "failed",
                "cached": outcome.cached,
                "seconds": outcome.seconds,
                "final_accuracy": (
                    outcome.result.final_accuracy if outcome.ok else None
                ),
                "error": outcome.error,
            }
            for outcome in outcomes
        },
    }
    atomic_write_bytes(
        checkpoint_dir / "manifest.json",
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )


def run_sweep(
    cells: Sequence["SweepCell"],
    run: Callable,
    *,
    n_proc: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **run_kwargs,
) -> SweepReport:
    """Run a grid of sweep cells across ``n_proc`` worker processes.

    ``run(cell, checkpoint_dir=..., resume_from=..., **run_kwargs)`` trains
    one cell and returns its picklable result; callers pass a short closure
    that maps the cell's fields onto their workload's run function, e.g.
    ``lambda cell, **kw: run_rl(cell.method, cell.dataset,
    sparsity=cell.sparsity, seed=cell.seed, **kw)``.  The run function
    validates the cell; unlike :func:`run_multi_seed`, a failing cell does
    not abort the sweep: it is reported as a failed :class:`CellOutcome`
    and every other cell still runs (crash isolation extends to
    worker-process death).

    Fault tolerance: with ``checkpoint_dir`` set, each cell trains with
    resume-exact checkpointing under ``<checkpoint_dir>/<cell_key>/`` and
    records its finished result there (atomically, from the worker that
    ran it); the parent maintains ``manifest.json``.  A fingerprint of
    ``run_kwargs`` guards both against a resumed sweep whose arguments
    changed.  With ``resume=True``, completed cells are served from those
    records without re-running (``CellOutcome.cached``) and partial cells
    restore from their latest checkpoint mid-epoch, so a killed sweep rerun
    with the same arguments produces the :class:`SweepReport` the
    uninterrupted sweep would have produced.
    """
    cells = list(cells)
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    checkpoint_root = pathlib.Path(checkpoint_dir) if checkpoint_dir is not None else None

    fingerprint = _config_fingerprint(run_kwargs)
    cached: dict[int, CellOutcome] = {}
    if checkpoint_root is not None and resume:
        for index, cell in enumerate(cells):
            outcome = _load_cached_outcome(cell, checkpoint_root / cell_key(cell), fingerprint)
            if outcome is not None:
                cached[index] = outcome

    def make_job(cell: "SweepCell"):
        cell_dir = checkpoint_root / cell_key(cell) if checkpoint_root is not None else None

        def job():
            if cell_dir is not None:
                # Checkpoints/results recorded under different sweep
                # arguments must not leak into this run or a later resume.
                _invalidate_stale_cell(cell_dir, fingerprint)
            result = run(
                cell,
                checkpoint_dir=cell_dir,
                resume_from=cell_dir if resume else None,
                **run_kwargs,
            )
            if cell_dir is not None:
                # The completed-cell record is written by whichever process
                # ran the cell, so a killed *parent* loses nothing.
                atomic_write_bytes(
                    cell_dir / "result.pkl",
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
                )
            return result

        return job

    pending = [index for index in range(len(cells)) if index not in cached]
    shards = run_sharded([make_job(cells[index]) for index in pending], n_proc=n_proc)
    outcomes_by_index = dict(cached)
    for index, shard in zip(pending, shards):
        outcomes_by_index[index] = CellOutcome(
            cell=cells[index],
            result=shard.value if shard.ok else None,
            error=None if shard.ok else shard.error,
            seconds=shard.seconds,
        )
    outcomes = [outcomes_by_index[index] for index in range(len(cells))]
    if checkpoint_root is not None:
        checkpoint_root.mkdir(parents=True, exist_ok=True)
        _write_manifest(checkpoint_root, outcomes)
    return SweepReport(outcomes=outcomes)
