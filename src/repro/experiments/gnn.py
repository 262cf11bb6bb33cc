"""GNN link-prediction experiment cells (Tables III and IV).

:func:`run_gnn` trains one (method, graph, sparsity, seed) cell of the
paper's §V.B protocol with the shared :class:`~repro.train.Trainer`: a GCN
encoder with an MLP link predictor on a synthetic stand-in for wiki-talk or
ia-email.  ``dense`` and the drop-and-grow methods come from
:func:`~repro.experiments.registry.build_method`, applied to the
predictor's two fully-connected layers with *uniform* sparsity.  ``admm``
is the prune-from-dense baseline in three phases of ``epochs // 3``: dense
pretraining, ADMM training toward the sparse set, then a hard top-k prune
and fixed-mask retraining with a fresh Adam (the paper: 20 + 20 + 20
epochs against DST-EE's 50).  A run is scored once, after training, on
the held-out edges.

``checkpoint_dir``/``resume_from`` continue a killed run bitwise, except
for the three-phase ``admm`` baseline, which is not resumable.  A GNN
sweep cell is a :class:`~repro.experiments.registry.SweepCell` with
``model="gnn"`` and the graph name in the ``dataset`` slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.dataset import ArrayDataset
from repro.data.graphs import LinkPredictionData, ia_email_like, wiki_talk_like
from repro.data.loader import DataLoader
from repro.experiments.registry import GNN_METHODS, build_method
from repro.metrics.accuracy import binary_accuracy
from repro.models.gnn import BoundLinkModel
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.sparse import ADMMPruner, FixedMaskController, MaskedModel
from repro.train import Trainer
from repro.train.callbacks import Callback
from repro.train.checkpoint import (
    CheckpointCallback,
    load_training_checkpoint,
    resolve_resume_path,
)
from repro.train.loop import mask_stats

__all__ = ["GRAPHS", "GNNResult", "edge_dataset", "evaluate_link_prediction", "run_gnn"]

GRAPHS = {"wiki_talk": wiki_talk_like, "ia_email": ia_email_like}
# The ADMM baseline's augmented-Lagrangian penalty coefficient.
ADMM_RHO = 5e-3


@dataclass
class GNNResult:
    """Outcome of one GNN link-prediction run."""

    method: str
    dataset: str
    sparsity: float
    epochs: int
    final_accuracy: float
    seconds: float
    actual_sparsity: float | None = None
    exploration_rate: float | None = None
    # Populated only with ``keep_model=True``: the trained model and its
    # MaskedModel wrapper (None for dense).
    model: object = field(repr=False, default=None, compare=False)
    masked: object = field(repr=False, default=None, compare=False)


def edge_dataset(positive: np.ndarray, negative: np.ndarray) -> ArrayDataset:
    """``(k, 2)`` edges labelled 1.0 (``positive``, first) or 0.0 (``negative``)."""
    labels = np.concatenate([np.ones(len(positive)), np.zeros(len(negative))])
    return ArrayDataset(np.vstack([positive, negative]), labels.astype(np.float32))


def evaluate_link_prediction(model: BoundLinkModel, data: LinkPredictionData) -> float:
    """Binary accuracy over the held-out positive and negative edges."""
    test = edge_dataset(data.test_pos, data.test_neg)
    was_training = model.training
    model.eval()
    with no_grad():
        logits = model(test.inputs)
    model.train(was_training)
    return binary_accuracy(logits, test.targets)


def run_gnn(
    method: str,
    dataset: str = "wiki_talk",
    *,
    data: LinkPredictionData | None = None,
    n_nodes: int = 400,
    sparsity: float = 0.9,
    epochs: int = 12,
    batch_size: int = 512,
    lr: float = 5e-3,
    delta_t: int = 5,
    drop_fraction: float = 0.3,
    c: float = 1e-3,
    epsilon: float = 1.0,
    seed: int = 0,
    callbacks: Sequence[Callback] = (),
    checkpoint_dir=None,
    checkpoint_every_epochs: int | None = 1,
    checkpoint_every_steps: int | None = None,
    checkpoint_keep_last: int | None = None,
    resume_from=None,
    keep_model: bool = False,
) -> GNNResult:
    """Train one GNN link-prediction configuration and return its summary row.

    ``seed`` drives the graph (unless ``data`` is given), model init, data
    order, initial masks and engine tie-breaking; ``admm`` shuffles its
    second and third phases with ``seed + 1`` and ``seed + 2``.
    """
    if method not in GNN_METHODS:
        raise ValueError(f"method {method!r} is not GNN-capable; known: {GNN_METHODS}")
    if dataset not in GRAPHS:
        raise ValueError(f"unknown graph {dataset!r}; registered: {tuple(GRAPHS)}")
    if method == "admm" and (checkpoint_dir is not None or resume_from is not None):
        raise ValueError("the three-phase admm baseline is not resumable; drop checkpoint_dir")

    start = time.time()
    if data is None:
        data = GRAPHS[dataset](n_nodes=n_nodes, seed=seed)
    model = BoundLinkModel(data.adjacency, data.features, seed=seed)
    targets = model.sparse_target_modules()
    train = edge_dataset(data.train_pos, data.train_neg)

    def make_trainer(optimizer, controller, data_seed, extra=()):
        loader = DataLoader(
            train, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(data_seed)
        )
        return Trainer(
            model,
            optimizer,
            binary_cross_entropy_with_logits,
            loader,
            controller=controller,
            callbacks=[*callbacks, *extra],
        )

    optimizer = Adam(model.parameters(), lr=lr)
    if method == "admm":
        phase = max(1, epochs // 3)
        make_trainer(optimizer, None, seed).fit(phase)
        pruner = ADMMPruner(model, sparsity, rho=ADMM_RHO, include_modules=targets)
        make_trainer(optimizer, pruner, seed + 1).fit(phase)
        masked = MaskedModel(
            model,
            sparsity,
            distribution="uniform",
            include_modules=targets,
            masks=pruner.hard_prune_masks(),
        )
        controller = FixedMaskController(masked)
        make_trainer(Adam(model.parameters(), lr=lr), controller, seed + 2).fit(phase)
        epochs = 3 * phase
    else:
        n_batches = -(-len(train) // batch_size)
        setup = build_method(
            method,
            model,
            optimizer,
            sparsity,
            epochs * n_batches,
            distribution="uniform",
            delta_t=delta_t,
            drop_fraction=drop_fraction,
            c=c,
            epsilon=epsilon,
            include_modules=targets,
            rng=np.random.default_rng(seed),
        )
        masked, controller = setup.masked, setup.controller
        extra = []
        if checkpoint_dir is not None:
            extra.append(
                CheckpointCallback(
                    checkpoint_dir,
                    every_n_epochs=checkpoint_every_epochs,
                    every_n_steps=checkpoint_every_steps,
                    keep_last=checkpoint_keep_last,
                )
            )
        trainer = make_trainer(optimizer, controller, seed, extra)
        resume_path = resolve_resume_path(resume_from)
        if resume_path is not None:
            trainer.load_state_dict(load_training_checkpoint(resume_path))
        epochs = len(trainer.fit(epochs).epochs)

    actual_sparsity, exploration_rate = mask_stats(controller)
    return GNNResult(
        method=method,
        dataset=data.name,
        sparsity=sparsity,
        epochs=epochs,
        final_accuracy=evaluate_link_prediction(model, data),
        seconds=time.time() - start,
        actual_sparsity=actual_sparsity,
        exploration_rate=exploration_rate,
        model=model if keep_model else None,
        masked=masked if keep_model else None,
    )
