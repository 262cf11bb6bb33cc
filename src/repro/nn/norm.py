"""Normalization layers.

The batch-norm layers keep running estimates of mean/variance (buffers) for
inference and compute batch statistics inside the fused
:func:`repro.autograd.ops.batch_norm` node during training, so gradients flow
through the normalization exactly as in the reference implementations the
paper's experiments rely on.  :class:`LayerNorm` normalizes each row over the
last axis with the fused :func:`repro.autograd.ops.layer_norm` node.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "LayerNorm"]


class _BatchNorm(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(np.ones(num_features, dtype=np.float32), name="gamma")
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32), name="beta")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    _reduce_axes: tuple[int, ...] = (0,)
    _param_shape: tuple[int, ...] = (-1,)

    def forward(self, x: Tensor) -> Tensor:
        shape = self._param_shape
        if self.training:
            # Fused batch-norm node: one forward pass and a closed-form
            # backward instead of a ten-op elementwise graph (the composed
            # form dominated conv-model step profiles).
            out, batch_mean, batch_var = ops.batch_norm(
                x, self.weight, self.bias, self._reduce_axes, self.eps
            )
            # Update running statistics outside the graph.
            m = self.momentum
            self.register_buffer(
                "running_mean", ((1 - m) * self.running_mean + m * batch_mean).astype(np.float32)
            )
            self.register_buffer(
                "running_var", ((1 - m) * self.running_var + m * batch_var).astype(np.float32)
            )
            return out
        mean_c = self.running_mean.reshape(shape)
        var_c = self.running_var.reshape(shape)
        x_hat = ops.div(ops.sub(x, mean_c), np.sqrt(var_c + self.eps))
        gamma = ops.reshape(self.weight, shape)
        beta = ops.reshape(self.bias, shape)
        return ops.add(ops.mul(x_hat, gamma), beta)

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}({self.num_features}, eps={self.eps}, momentum={self.momentum})"


class LayerNorm(Module):
    """Layer normalization over the trailing ``normalized_dim`` features.

    Unlike batch norm there are no running statistics — train and eval
    behave identically, and the statistics are per-example (reduced over
    the last axis only), so transformer blocks normalize each token's
    feature vector independently of batch composition.  One fused autograd
    node (:func:`repro.autograd.ops.layer_norm`) with a closed-form backward
    that flows through the statistics exactly (checked against numerical
    gradients and the composed formula in ``tests/nn/test_transformer.py``).
    """

    def __init__(self, normalized_dim: int, eps: float = 1e-5):
        super().__init__()
        if normalized_dim <= 0:
            raise ValueError(f"normalized_dim must be positive, got {normalized_dim}")
        self.normalized_dim = int(normalized_dim)
        self.eps = float(eps)
        self.weight = Parameter(np.ones(normalized_dim, dtype=np.float32), name="gamma")
        self.bias = Parameter(np.zeros(normalized_dim, dtype=np.float32), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(f"LayerNorm({self.normalized_dim}) got trailing dim {x.shape[-1]}")
        return ops.layer_norm(x, self.weight, self.bias, self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_dim}, eps={self.eps})"


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``(N, C)`` activations."""

    _reduce_axes = (0,)
    _param_shape = (1, -1)


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``(N, C, H, W)`` activations, per channel."""

    _reduce_axes = (0, 2, 3)
    _param_shape = (1, -1, 1, 1)
