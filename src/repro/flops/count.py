"""FLOPs accounting for dense and sparse models (Table II columns).

Following the convention of the RigL paper (which Table II adopts):

* inference FLOPs = one forward pass; a sparse layer costs
  ``density × dense_FLOPs``;
* training FLOPs per step = forward + backward ≈ 3 × forward (gradients
  w.r.t. both inputs and weights), again scaled by the density at which the
  method trains; dense-to-sparse methods are charged their *average* density
  over the training schedule.

Layer shapes are discovered by instrumenting a dummy forward pass, so any
architecture built from :class:`~repro.nn.Linear` / :class:`~repro.nn.Conv2d`
is supported without per-model code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import Module

__all__ = [
    "LayerProfile",
    "ModelProfile",
    "profile_model",
    "conv2d_flops",
    "linear_flops",
    "sparse_inference_flops",
    "training_flops_multiplier",
]


def conv2d_flops(
    in_channels: int, out_channels: int, kernel_hw: tuple[int, int],
    out_hw: tuple[int, int], bias: bool = False,
) -> int:
    """Multiply-add FLOPs of one conv forward pass on one example."""
    kh, kw = kernel_hw
    oh, ow = out_hw
    per_position = 2 * in_channels * kh * kw  # mult + add
    total = per_position * out_channels * oh * ow
    if bias:
        total += out_channels * oh * ow
    return int(total)


def linear_flops(in_features: int, out_features: int, bias: bool = False) -> int:
    """Multiply-add FLOPs of one linear forward pass on one example."""
    total = 2 * in_features * out_features
    if bias:
        total += out_features
    return int(total)


@dataclass
class LayerProfile:
    """FLOPs and size of one prunable layer."""

    name: str
    kind: str  # "conv" or "linear"
    weight_shape: tuple[int, ...]
    flops: int


@dataclass
class ModelProfile:
    """Per-layer forward-FLOPs profile of a model at a given input shape."""

    layers: list[LayerProfile]
    input_shape: tuple[int, ...]

    @property
    def total_flops(self) -> int:
        return sum(layer.flops for layer in self.layers)


def profile_model(model: Module, input_shape: tuple[int, ...]) -> ModelProfile:
    """Run a dummy forward pass and record every Conv2d/Linear layer's FLOPs.

    ``input_shape`` excludes the batch dimension.
    """
    module_names = {id(m): name for name, m in model.named_modules()}
    records: list[LayerProfile] = []

    original_conv = nn.Conv2d.forward
    original_linear = nn.Linear.forward

    def conv_forward(self, x):
        out = original_conv(self, x)
        name = module_names.get(id(self), "conv")
        records.append(
            LayerProfile(
                name=f"{name}.weight" if name else "weight",
                kind="conv",
                weight_shape=self.weight.shape,
                flops=conv2d_flops(
                    self.in_channels,
                    self.out_channels,
                    self.kernel_size,
                    (out.shape[2], out.shape[3]),
                    bias=self.bias is not None,
                ),
            )
        )
        return out

    def linear_forward(self, x):
        out = original_linear(self, x)
        name = module_names.get(id(self), "linear")
        records.append(
            LayerProfile(
                name=f"{name}.weight" if name else "weight",
                kind="linear",
                weight_shape=self.weight.shape,
                flops=linear_flops(
                    self.in_features, self.out_features, bias=self.bias is not None
                ),
            )
        )
        return out

    was_training = model.training
    nn.Conv2d.forward = conv_forward
    nn.Linear.forward = linear_forward
    try:
        model.eval()
        with no_grad():
            model(Tensor(np.zeros((1,) + tuple(input_shape), dtype=np.float32)))
    finally:
        nn.Conv2d.forward = original_conv
        nn.Linear.forward = original_linear
        model.train(was_training)
    return ModelProfile(layers=records, input_shape=tuple(input_shape))


def sparse_inference_flops(
    profile: ModelProfile, masks: dict[str, np.ndarray]
) -> tuple[int, float]:
    """Inference FLOPs of a masked model and the multiplier vs dense.

    Layers without a mask (kept dense) are charged in full.
    """
    total = 0.0
    for layer in profile.layers:
        mask = masks.get(layer.name)
        density = float(mask.mean()) if mask is not None else 1.0
        total += density * layer.flops
    dense = profile.total_flops
    return int(total), total / dense if dense else 0.0


def training_flops_multiplier(
    profile: ModelProfile,
    density_schedule: list[dict[str, float]] | dict[str, np.ndarray],
) -> float:
    """Average training cost vs dense training (forward+backward ≈ 3× fwd).

    ``density_schedule`` is either a single mask dict (methods with a fixed
    sparsity budget — the density never changes, e.g. RigL/DST-EE) or a list
    of per-layer density snapshots over training (dense-to-sparse methods).
    The 3× factor cancels in the ratio, so the multiplier is simply the
    FLOPs-weighted average density.
    """
    if isinstance(density_schedule, dict):
        snapshots = [
            {name: float(mask.mean()) for name, mask in density_schedule.items()}
        ]
    else:
        snapshots = density_schedule
    if not snapshots:
        raise ValueError("density_schedule is empty")
    dense = profile.total_flops
    total = 0.0
    for snapshot in snapshots:
        step_flops = 0.0
        for layer in profile.layers:
            density = snapshot.get(layer.name, 1.0)
            step_flops += density * layer.flops
        total += step_flops / dense
    return total / len(snapshots)
