"""Pruning-at-initialization baselines: SNIP, GraSP, SynFlow.

These compute per-weight saliency on the *dense* network at initialization
and keep the globally top-ranked fraction; the resulting masks stay fixed
for the rest of training (:class:`~repro.sparse.engine.FixedMaskController`).

All three return ``{parameter_name: bool mask}`` dictionaries suitable for
``MaskedModel(..., masks=...)``.

Implementation notes
--------------------
* **SNIP** (Lee et al., ICLR'19): saliency ``|g ⊙ w|`` from one (or a few)
  mini-batches.
* **GraSP** (Wang et al., ICLR'20): saliency ``-w ⊙ (H g)``.  The
  Hessian-gradient product is computed with a central finite difference of
  gradients (the autograd engine is first-order only); keeping the *lowest*
  scores preserves gradient flow, matching the official implementation.
* **SynFlow** (Tanaka et al., NeurIPS'20): data-free iterative synaptic
  flow.  Weights are replaced by their absolute values, the input is
  all-ones, the objective is the sum of outputs, and pruning proceeds over
  ``rounds`` rounds with an exponential sparsity schedule.  BatchNorm runs
  in eval mode so the flow stays positive.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.sparse.budget import DensityBudget
from repro.sparse.masked import collect_sparsifiable

__all__ = ["snip_masks", "grasp_masks", "synflow_masks", "global_topk_masks"]


def global_topk_masks(
    scores: dict[str, np.ndarray],
    density: float | None = None,
    keep: str = "largest",
    budget: DensityBudget | None = None,
) -> dict[str, np.ndarray]:
    """Keep the global top (or bottom) ``density`` fraction across all layers.

    Instead of a float ``density``, a :class:`DensityBudget` may be passed:
    exactly ``budget.total`` weights are kept (the global count, not a
    rounded fraction), so masks built here line up element-for-element with
    the budget a controller will later enforce.  Guarantees at least one
    active weight per layer so no layer is severed.
    """
    names = list(scores)
    flat = np.concatenate([scores[n].reshape(-1) for n in names])
    if budget is not None:
        if density is not None:
            raise ValueError("pass either density or budget, not both")
        if budget.capacity != flat.size:
            raise ValueError(
                f"budget capacity {budget.capacity} does not match "
                f"{flat.size} scored weights"
            )
        k = max(1, budget.total)
    else:
        if density is None or not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        k = max(1, int(round(density * flat.size)))
    ranked = flat if keep == "largest" else -flat
    threshold_idx = np.argpartition(-ranked, k - 1)[:k]
    chosen = np.zeros(flat.size, dtype=bool)
    chosen[threshold_idx] = True
    masks: dict[str, np.ndarray] = {}
    offset = 0
    for name in names:
        size = scores[name].size
        layer_mask = chosen[offset : offset + size].reshape(scores[name].shape)
        if not layer_mask.any():
            # Never sever a layer completely: keep its single best weight.
            best = np.argmax(ranked[offset : offset + size])
            layer_mask.reshape(-1)[best] = True
        masks[name] = layer_mask
        offset += size
    return masks


def _accumulate_gradients(
    model: Module,
    loss_fn: Callable,
    batches: Iterable,
    targets: Sequence[tuple[str, object]],
) -> dict[str, np.ndarray]:
    """Sum of parameter gradients over the given batches."""
    grads = {name: np.zeros(param.shape, dtype=np.float64) for name, param in targets}
    n = 0
    for inputs, labels in batches:
        model.zero_grad()
        loss = loss_fn(model(inputs), labels)
        loss.backward()
        for name, param in targets:
            if param.grad is not None:
                grads[name] += param.grad
        n += 1
    if n == 0:
        raise ValueError("no batches provided for saliency computation")
    for name in grads:
        grads[name] /= n
    return grads


def snip_masks(
    model: Module,
    loss_fn: Callable,
    batches: Iterable,
    sparsity: float,
    include_modules: Sequence[Module] | None = None,
) -> dict[str, np.ndarray]:
    """SNIP: keep the weights with the largest ``|g ⊙ w|`` saliency."""
    targets = collect_sparsifiable(model, include_modules)
    grads = _accumulate_gradients(model, loss_fn, batches, targets)
    scores = {name: np.abs(grads[name] * param.data) for name, param in targets}
    return global_topk_masks(scores, density=1.0 - sparsity, keep="largest")


def grasp_masks(
    model: Module,
    loss_fn: Callable,
    batches: Iterable,
    sparsity: float,
    include_modules: Sequence[Module] | None = None,
    fd_eps: float = 1e-2,
) -> dict[str, np.ndarray]:
    """GraSP: keep the weights that preserve gradient flow (lowest ``w·Hg``).

    The Hessian-gradient product is approximated by the central finite
    difference ``Hg ≈ (∇L(w + δĝ) − ∇L(w − δĝ)) / 2δ`` with
    ``δ = fd_eps / ‖g‖``.
    """
    targets = collect_sparsifiable(model, include_modules)
    batch_list = list(batches)
    base_grads = _accumulate_gradients(model, loss_fn, batch_list, targets)
    grad_norm = np.sqrt(sum(float((g**2).sum()) for g in base_grads.values()))
    delta = fd_eps / max(grad_norm, 1e-12)

    originals = {name: param.data.copy() for name, param in targets}

    def perturb(sign: float) -> dict[str, np.ndarray]:
        for name, param in targets:
            param.data = (originals[name] + sign * delta * base_grads[name]).astype(param.dtype)
        return _accumulate_gradients(model, loss_fn, batch_list, targets)

    plus = perturb(+1.0)
    minus = perturb(-1.0)
    for name, param in targets:  # restore
        param.data = originals[name]

    scores: dict[str, np.ndarray] = {}
    for name, param in targets:
        hvp = (plus[name] - minus[name]) / (2.0 * delta)
        scores[name] = param.data.astype(np.float64) * hvp
    # GraSP removes the weights with the *highest* w·Hg score.
    return global_topk_masks(scores, density=1.0 - sparsity, keep="smallest")


def synflow_masks(
    model: Module,
    input_shape: tuple[int, ...],
    sparsity: float,
    include_modules: Sequence[Module] | None = None,
    rounds: int = 20,
) -> dict[str, np.ndarray]:
    """SynFlow: data-free iterative synaptic-flow pruning.

    ``input_shape`` excludes the batch dimension (a single all-ones example
    is used).  ``rounds`` controls the exponential schedule granularity
    (the original paper uses 100; the default of 20 keeps bench-scale runs
    cheap — pass ``rounds=100`` for the original schedule).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    targets = collect_sparsifiable(model, include_modules)
    originals = {name: param.data.copy() for name, param in targets}
    was_training = model.training
    model.eval()  # BatchNorm must use running stats for positive flow

    target_density = 1.0 - sparsity
    masks = {name: np.ones(param.shape, dtype=bool) for name, param in targets}
    ones_input = Tensor(np.ones((1,) + tuple(input_shape), dtype=np.float32))

    try:
        for round_index in range(1, rounds + 1):
            density = target_density ** (round_index / rounds)
            # Linearize: replace weights by |w| under the current mask.
            for name, param in targets:
                param.data = (np.abs(originals[name]) * masks[name]).astype(param.dtype)
            model.zero_grad()
            out = model(ones_input)
            flow = out.sum()
            flow.backward()
            scores = {}
            for name, param in targets:
                grad = param.grad if param.grad is not None else np.zeros(param.shape)
                layer_scores = np.abs(param.data * grad)
                # Already-pruned weights must stay pruned.
                layer_scores[~masks[name]] = -np.inf
                scores[name] = layer_scores
            masks = global_topk_masks(scores, density=density, keep="largest")
    finally:
        for name, param in targets:
            param.data = originals[name]
        model.train(was_training)
    return masks
