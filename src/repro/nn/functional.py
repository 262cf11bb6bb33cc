"""Functional API — stateless versions of the layer operations.

Mirrors ``torch.nn.functional`` for the operations this library supports,
so models can be written without modules when convenient (the GNN encoder
and several tests use this form).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import conv as _conv
from repro.autograd import ops as _ops
from repro.autograd.tensor import Tensor, ensure_tensor
from repro.rng import resolve_rng

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "batch_norm",
    "flatten",
]

# Re-exported primitives (same objects; listed for API completeness).
linear = _ops.linear
conv2d = _conv.conv2d
max_pool2d = _conv.max_pool2d
avg_pool2d = _conv.avg_pool2d
relu = _ops.relu
leaky_relu = _ops.leaky_relu
sigmoid = _ops.sigmoid
tanh = _ops.tanh
softmax = _ops.softmax
log_softmax = _ops.log_softmax


def dropout(
    x,
    p: float = 0.5,
    training: bool = True,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Inverted dropout; identity when ``training=False`` or ``p == 0``."""
    x = ensure_tensor(x)
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    generator = resolve_rng(rng)
    keep = 1.0 - p
    mask = (generator.random(x.shape) < keep).astype(x.dtype) / keep
    return _ops.mul(x, mask)


def batch_norm(
    x,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight=None,
    bias=None,
    training: bool = False,
    eps: float = 1e-5,
) -> Tensor:
    """Functional batch norm over axis 1 (inference-style by default).

    In training mode batch statistics are used (but the running buffers are
    *not* updated — use :class:`repro.nn.BatchNorm2d` for stateful training).
    """
    x = ensure_tensor(x)
    param_shape = (1, -1) + (1,) * (x.ndim - 2)
    if training:
        axes = (0,) + tuple(range(2, x.ndim))
        mu = _ops.mean(x, axis=axes, keepdims=True)
        centered = _ops.sub(x, mu)
        var = _ops.mean(_ops.mul(centered, centered), axis=axes, keepdims=True)
        x_hat = _ops.div(centered, _ops.sqrt(_ops.add(var, eps)))
    else:
        mean_c = np.asarray(running_mean, dtype=np.float32).reshape(param_shape)
        var_c = np.asarray(running_var, dtype=np.float32).reshape(param_shape)
        x_hat = _ops.div(_ops.sub(x, mean_c), np.sqrt(var_c + eps))
    if weight is not None:
        x_hat = _ops.mul(x_hat, _ops.reshape(ensure_tensor(weight), param_shape))
    if bias is not None:
        x_hat = _ops.add(x_hat, _ops.reshape(ensure_tensor(bias), param_shape))
    return x_hat


def flatten(x, start_dim: int = 1) -> Tensor:
    """Collapse dimensions from ``start_dim`` onward."""
    x = ensure_tensor(x)
    new_shape = x.shape[:start_dim] + (-1,)
    return _ops.reshape(x, new_shape)
