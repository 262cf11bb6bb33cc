"""Activation modules wrapping the functional ops."""

from __future__ import annotations

from repro.autograd import ops
from repro.nn.module import Module

__all__ = ["GELU", "ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax", "LogSoftmax"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x):
        return ops.relu(x)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, x):
        return ops.leaky_relu(x, self.negative_slope)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation).

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))`` — smooth
    near zero where transformer residual streams live.  One fused autograd
    node (:func:`repro.autograd.ops.gelu`) whose backward is the exact
    derivative of the approximation.
    """

    def forward(self, x):
        return ops.gelu(x)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x):
        return ops.sigmoid(x)


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x):
        return ops.tanh(x)


class Softmax(Module):
    """Softmax along ``axis`` (default: last)."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x):
        return ops.softmax(x, axis=self.axis)


class LogSoftmax(Module):
    """Log-softmax along ``axis`` (default: last)."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x):
        return ops.log_softmax(x, axis=self.axis)
