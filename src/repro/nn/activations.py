"""Activation modules wrapping the autograd ops."""

from __future__ import annotations

from repro.autograd import ops
from repro.nn.module import Module

__all__ = ["GELU", "ReLU"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x):
        return ops.relu(x)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation).

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))`` — smooth
    near zero where transformer residual streams live.  One fused autograd
    node (:func:`repro.autograd.ops.gelu`) whose backward is the exact
    derivative of the approximation.
    """

    def forward(self, x):
        return ops.gelu(x)
