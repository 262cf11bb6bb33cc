"""GNN link-prediction experiments (Tables III and IV).

Three pipelines, matching the paper's §V.B protocol:

* :func:`run_gnn_dense` — dense training, best test accuracy over epochs;
* :func:`run_gnn_dst_ee` — DST-EE applied to the predictor's two FC layers
  with *uniform* sparsity, 50 epochs;
* :func:`run_admm_prune_from_dense` — the prune-from-dense baseline:
  20 pretrain + 20 ADMM (augmented-Lagrangian) + 20 retrain epochs with a
  hard top-k prune in between, per the paper's 60-epoch recipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.graphs import LinkPredictionData
from repro.metrics.accuracy import binary_accuracy
from repro.models.gnn import GNNLinkModel
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.sparse import (
    ADMMPruner,
    DSTEEGrowth,
    DynamicSparseEngine,
    FixedMaskController,
    MaskedModel,
    TrainingSchedule,
)

__all__ = [
    "GNNResult",
    "evaluate_link_prediction",
    "train_link_predictor",
    "run_gnn_dense",
    "run_gnn_dst_ee",
    "run_admm_prune_from_dense",
]


@dataclass
class GNNResult:
    """Outcome of one GNN pipeline."""

    method: str
    dataset: str
    sparsity: float | None
    best_accuracy: float
    final_accuracy: float
    epochs: int
    seconds: float
    actual_sparsity: float | None = None


def evaluate_link_prediction(model: GNNLinkModel, data: LinkPredictionData) -> float:
    """Binary accuracy over held-out positive and negative edges."""
    was_training = model.training
    model.eval()
    with no_grad():
        edges = np.vstack([data.test_pos, data.test_neg])
        labels = np.concatenate(
            [np.ones(len(data.test_pos)), np.zeros(len(data.test_neg))]
        ).astype(np.float32)
        logits = model(data.adjacency, Tensor(data.features), edges)
    model.train(was_training)
    return binary_accuracy(logits, labels)


def _edge_batches(data: LinkPredictionData, rng: np.random.Generator, batch_size: int):
    """Shuffled mini-batches of (edges, labels) over train pos+neg edges."""
    edges = np.vstack([data.train_pos, data.train_neg])
    labels = np.concatenate(
        [np.ones(len(data.train_pos)), np.zeros(len(data.train_neg))]
    ).astype(np.float32)
    order = rng.permutation(len(edges))
    for start in range(0, len(edges), batch_size):
        idx = order[start : start + batch_size]
        yield edges[idx], labels[idx]


def train_link_predictor(
    model: GNNLinkModel,
    data: LinkPredictionData,
    epochs: int,
    *,
    lr: float = 5e-3,
    batch_size: int = 512,
    controller=None,
    optimizer=None,
    admm: ADMMPruner | None = None,
    admm_dual_every: int = 2,
    seed: int = 0,
) -> tuple[float, float, object]:
    """Generic GNN training loop; returns (best_acc, final_acc, optimizer)."""
    rng = np.random.default_rng(seed)
    features = Tensor(data.features)
    if optimizer is None:
        optimizer = Adam(model.parameters(), lr=lr)
    best = 0.0
    final = 0.0
    step = 0
    for epoch in range(epochs):
        model.train()
        for edges, labels in _edge_batches(data, rng, batch_size):
            step += 1
            model.zero_grad()
            logits = model(data.adjacency, features, edges)
            loss = binary_cross_entropy_with_logits(logits, labels)
            loss.backward()
            if admm is not None:
                admm.add_penalty_gradients()
            skip = controller.on_backward(step) if controller is not None else False
            if not skip:
                optimizer.step()
                if controller is not None:
                    controller.after_step(step)
        if admm is not None and (epoch + 1) % admm_dual_every == 0:
            admm.dual_update()
        final = evaluate_link_prediction(model, data)
        best = max(best, final)
    return best, final, optimizer


def run_gnn_dense(
    data: LinkPredictionData,
    epochs: int = 50,
    seed: int = 0,
    lr: float = 5e-3,
) -> GNNResult:
    """Dense reference row of Tables III/IV."""
    start = time.time()
    model = GNNLinkModel(data.n_features, seed=seed)
    best, final, _ = train_link_predictor(model, data, epochs, lr=lr, seed=seed)
    return GNNResult(
        method="dense",
        dataset=data.name,
        sparsity=None,
        best_accuracy=best,
        final_accuracy=final,
        epochs=epochs,
        seconds=time.time() - start,
    )


def run_gnn_dst_ee(
    data: LinkPredictionData,
    sparsity: float,
    epochs: int = 50,
    *,
    c: float = 1e-3,
    epsilon: float = 1.0,
    delta_t: int = 5,
    drop_fraction: float = 0.3,
    lr: float = 5e-3,
    seed: int = 0,
) -> GNNResult:
    """DST-EE on the predictor's two FC layers with uniform sparsity."""
    start = time.time()
    model = GNNLinkModel(data.n_features, seed=seed)
    rng = np.random.default_rng(seed)
    masked = MaskedModel(
        model,
        sparsity,
        distribution="uniform",
        rng=rng,
        include_modules=model.sparse_target_modules(),
    )
    optimizer = Adam(model.parameters(), lr=lr)
    n_batches = int(np.ceil((len(data.train_pos) + len(data.train_neg)) / 512))
    total_steps = epochs * max(n_batches, 1)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=c, epsilon=epsilon),
        schedule=TrainingSchedule(
            total_steps=total_steps,
            delta_t=delta_t,
            drop_fraction=drop_fraction,
        ),
        optimizer=optimizer,
        rng=rng,
    )
    best, final, _ = train_link_predictor(
        model,
        data,
        epochs,
        controller=engine,
        optimizer=optimizer,
        seed=seed,
    )
    return GNNResult(
        method="dst_ee",
        dataset=data.name,
        sparsity=sparsity,
        best_accuracy=best,
        final_accuracy=final,
        epochs=epochs,
        seconds=time.time() - start,
        actual_sparsity=masked.global_sparsity(),
    )


def run_admm_prune_from_dense(
    data: LinkPredictionData,
    sparsity: float,
    *,
    pretrain_epochs: int = 20,
    admm_epochs: int = 20,
    retrain_epochs: int = 20,
    rho: float = 5e-3,
    lr: float = 5e-3,
    seed: int = 0,
) -> GNNResult:
    """Three-phase ADMM prune-from-dense (the paper's 60-epoch baseline)."""
    start = time.time()
    model = GNNLinkModel(data.n_features, seed=seed)
    targets = model.sparse_target_modules()

    # Phase 1: dense pretraining.
    _, _, optimizer = train_link_predictor(
        model, data, pretrain_epochs, lr=lr, seed=seed
    )

    # Phase 2: ADMM (reweighted) training toward the sparse constraint set.
    pruner = ADMMPruner(model, sparsity, rho=rho, include_modules=targets)
    train_link_predictor(
        model,
        data,
        admm_epochs,
        lr=lr,
        optimizer=optimizer,
        admm=pruner,
        seed=seed + 1,
    )

    # Phase 3: hard prune + fixed-mask retraining.
    masks = pruner.hard_prune_masks()
    masked = MaskedModel(
        model,
        sparsity,
        distribution="uniform",
        include_modules=targets,
        masks=masks,
    )
    controller = FixedMaskController(masked)
    best, final, _ = train_link_predictor(
        model,
        data,
        retrain_epochs,
        lr=lr,
        controller=controller,
        seed=seed + 2,
    )
    total_epochs = pretrain_epochs + admm_epochs + retrain_epochs
    return GNNResult(
        method="prune_from_dense_admm",
        dataset=data.name,
        sparsity=sparsity,
        best_accuracy=best,
        final_accuracy=final,
        epochs=total_epochs,
        seconds=time.time() - start,
        actual_sparsity=masked.global_sparsity(),
    )
