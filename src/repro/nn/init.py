"""Weight initialization (Kaiming-uniform, the layers' default).

The initializer mutates the parameter in-place and takes an explicit
``numpy.random.Generator`` so model construction is fully reproducible —
a requirement for the multi-seed experiment protocol of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["kaiming_uniform_", "compute_fans"]


def compute_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor.

    Linear weights are ``(out, in)``; conv weights are
    ``(out, in, kh, kw)`` where the receptive-field size multiplies both fans.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation requires >= 2 dims, got shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _gain(nonlinearity: str) -> float:
    if nonlinearity == "relu":
        return math.sqrt(2.0)
    if nonlinearity == "leaky_relu":
        return math.sqrt(2.0 / (1 + 0.01**2))
    if nonlinearity in ("linear", "sigmoid", "identity"):
        return 1.0
    if nonlinearity == "tanh":
        return 5.0 / 3.0
    raise ValueError(f"unknown nonlinearity {nonlinearity!r}")


def kaiming_uniform_(
    param: Tensor, rng: np.random.Generator, nonlinearity: str = "relu"
) -> Tensor:
    """He-uniform init: ``bound = gain * sqrt(3 / fan_in)``."""
    fan_in, _ = compute_fans(param.shape)
    bound = _gain(nonlinearity) * math.sqrt(3.0 / fan_in)
    param.data = rng.uniform(-bound, bound, size=param.shape).astype(param.dtype)
    return param
