"""Char-LM experiment cells: one (method, corpus, sparsity, seed) GPT run.

The language-model counterpart of :mod:`repro.experiments.runner`: wires
the seeded Markov-prose corpus (:mod:`repro.data.text`) to a
:class:`~repro.models.CharGPT` whose every weight matrix — attention/MLP
Linears and both embedding tables — is sparsified by
:func:`repro.experiments.registry.build_method`, trains it with the
resume-exact :class:`~repro.train.Trainer`, and reports validation
perplexity (``exp`` of the mean per-token cross-entropy).

Every method/budget/schedule/checkpoint/backend keyword is named
identically to the image/RL/GAN runners.

Fault tolerance mirrors the other workloads: ``checkpoint_dir`` writes
resume-exact training checkpoints during the run and ``resume_from``
continues a killed run bitwise-identically (including mid-epoch).  Seeds
and grids go through the workload-agnostic
:func:`~repro.experiments.runner.run_multi_seed` and
:func:`~repro.experiments.runner.run_sweep`, which give crash isolation,
per-cell records and ``resume=True``; an LM cell is a
:class:`~repro.experiments.registry.SweepCell` with ``model="char_gpt"``
and the corpus name in the ``dataset`` slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.loader import DataLoader
from repro.data.text import LMData, make_char_lm_data
from repro.experiments.registry import LM_METHODS, build_method
from repro.experiments.runner import _resolve_resume_path
from repro.models.char_gpt import CharGPT
from repro.nn.losses import lm_cross_entropy
from repro.nn.module import Module
from repro.optim import Adam
from repro.train import Trainer
from repro.train.callbacks import Callback
from repro.train.checkpoint import CheckpointCallback, load_training_checkpoint

__all__ = ["LMRunResult", "evaluate_lm", "run_lm"]

CORPORA = ("markov-prose",)


@dataclass
class LMRunResult:
    """Outcome of one char-LM training run."""

    method: str
    corpus: str
    sparsity: float
    seed: int
    epochs: int
    total_steps: int
    train_loss: float
    val_loss: float
    val_perplexity: float
    val_next_token_accuracy: float
    n_params: int
    seconds: float
    steps_per_sec: float
    exploration_rate: float | None
    actual_sparsity: float | None
    history: object = field(repr=False, default=None)
    masks: dict = field(repr=False, default_factory=dict)
    final_layer_densities: dict = field(repr=False, default_factory=dict)
    # Populated only with ``keep_model=True`` (serial runs): the trained
    # model and its MaskedModel wrapper, for compile-and-export pipelines
    # (see repro.serve).  Sweep workers never ship these over pipes.
    model: object = field(repr=False, default=None, compare=False)
    masked: object = field(repr=False, default=None, compare=False)

    @property
    def final_accuracy(self) -> float:
        """Sweep-aggregation score (``SweepReport`` reads this name).

        For LM cells the aggregated "accuracy" is next-token top-1
        accuracy on the validation split — perplexity rides alongside in
        the full result row.
        """
        return self.val_next_token_accuracy


def evaluate_lm(model: Module, loader: DataLoader) -> tuple[float, float]:
    """(mean per-token cross-entropy, next-token accuracy) over a loader.

    Runs in eval mode without graph recording.  The loss is averaged over
    *tokens* (every window position), so ``exp(loss)`` is the validation
    perplexity the benches gate on.
    """
    was_training = model.training
    model.eval()
    total_loss = 0.0
    correct = 0
    total = 0
    with no_grad():
        for inputs, targets in loader:
            logits = model(inputs)
            n_tokens = int(np.asarray(targets).size)
            loss = lm_cross_entropy(logits, targets)
            total_loss += float(loss.data) * n_tokens
            flat_targets = np.asarray(targets).reshape(-1)
            correct += int((logits.data.argmax(axis=1) == flat_targets).sum())
            total += n_tokens
    model.train(was_training)
    total = max(total, 1)
    return total_loss / total, correct / total


def run_lm(
    method: str,
    corpus: str = "markov-prose",
    *,
    data: LMData | None = None,
    n_chars: int = 65536,
    val_fraction: float = 0.1,
    block_len: int = 32,
    n_layer: int = 2,
    n_head: int = 2,
    n_embd: int = 64,
    sparsity: float = 0.9,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 1e-3,
    delta_t: int = 100,
    drop_fraction: float = 0.3,
    c: float = 1e-3,
    epsilon: float = 1.0,
    distribution: str = "erk",
    block_size: int | None = None,
    sparse_backend: str | None = None,
    seed: int = 0,
    n_workers: int = 0,
    callbacks: Sequence[Callback] = (),
    checkpoint_dir=None,
    checkpoint_every_epochs: int | None = 1,
    checkpoint_every_steps: int | None = None,
    checkpoint_keep_last: int | None = None,
    resume_from=None,
    keep_model: bool = False,
) -> LMRunResult:
    """Train one sparse char-GPT configuration and return its summary row.

    ``seed`` drives every stream of randomness (model init, corpus
    generation, data order, initial masks, engine tie-breaking), so runs
    are exactly reproducible.  ``method`` is one of
    :data:`~repro.experiments.registry.LM_METHODS`.  Checkpoint/resume
    semantics match the supervised runner — a resumed run's trajectory,
    final masks, and validation numbers are bitwise identical to an
    uninterrupted run, including kills inside an epoch and at ΔT
    mask-update boundaries (serial and ``n_workers>=2``).
    """
    if method not in LM_METHODS:
        raise ValueError(f"method {method!r} is not LM-capable; known: {LM_METHODS}")
    if corpus not in CORPORA:
        raise ValueError(f"unknown corpus {corpus!r}; registered: {CORPORA}")

    start = time.time()
    if data is None:
        data = make_char_lm_data(
            n_chars=n_chars,
            block_len=block_len,
            val_fraction=val_fraction,
            seed=seed,
        )
    model = CharGPT(
        vocab_size=data.vocab_size,
        block_len=data.block_len,
        n_layer=n_layer,
        n_head=n_head,
        n_embd=n_embd,
        head="train",
        seed=seed,
    )
    train_loader = DataLoader(
        data.train,
        batch_size=batch_size,
        shuffle=True,
        rng=np.random.default_rng(seed + 1),
    )
    val_loader = DataLoader(data.val, batch_size=max(batch_size, 64))
    total_steps = epochs * len(train_loader)

    optimizer = Adam(model.parameters(), lr=lr)
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
        rng=np.random.default_rng(seed),
        block_size=block_size,
    )

    all_callbacks: list[Callback] = list(callbacks)
    if checkpoint_dir is not None:
        all_callbacks.append(
            CheckpointCallback(
                checkpoint_dir,
                every_n_epochs=checkpoint_every_epochs,
                every_n_steps=checkpoint_every_steps,
                keep_last=checkpoint_keep_last,
            )
        )

    # The classifier-shaped evaluator cannot consume (B*T, V) logits
    # against (B, T) targets, so the Trainer runs without a test loader
    # and validation happens once below via evaluate_lm.
    trainer = Trainer(
        model,
        optimizer,
        lm_cross_entropy,
        train_loader,
        None,
        controller=setup.controller,
        callbacks=all_callbacks,
        sparse_backend=sparse_backend,
        n_workers=n_workers,
    )
    resume_path = _resolve_resume_path(resume_from)
    if resume_path is not None:
        trainer.load_state_dict(load_training_checkpoint(resume_path))
    history = trainer.fit(epochs)

    val_loss, val_accuracy = evaluate_lm(model, val_loader)
    seconds = time.time() - start
    records = history.epochs
    steps_rates = [r.steps_per_sec for r in records if r.steps_per_sec is not None]
    coverage = getattr(setup.controller, "coverage", None)
    return LMRunResult(
        method=method,
        corpus=corpus,
        sparsity=sparsity,
        seed=seed,
        epochs=len(records),
        total_steps=total_steps,
        train_loss=records[-1].train_loss if records else float("nan"),
        val_loss=val_loss,
        val_perplexity=float(np.exp(val_loss)),
        val_next_token_accuracy=val_accuracy,
        n_params=sum(p.size for p in model.parameters()),
        seconds=seconds,
        steps_per_sec=float(np.mean(steps_rates)) if steps_rates else 0.0,
        exploration_rate=coverage.exploration_rate() if coverage else None,
        actual_sparsity=(
            setup.masked.global_sparsity() if setup.masked is not None else None
        ),
        history=history,
        masks=setup.masked.masks_snapshot() if setup.masked is not None else {},
        final_layer_densities=(
            setup.masked.layer_allocations() if setup.masked is not None else {}
        ),
        model=model if keep_model else None,
        masked=setup.masked if keep_model else None,
    )

