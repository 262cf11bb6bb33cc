"""Pooling modules."""

from __future__ import annotations

from repro.autograd import conv as conv_ops
from repro.autograd import ops
from repro.nn.module import Module

__all__ = ["MaxPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Max pooling (stride defaults to the kernel size)."""

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x):
        return conv_ops.max_pool2d(x, self.kernel_size, stride=self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: ``(N, C, H, W) -> (N, C)``."""

    def forward(self, x):
        return ops.mean(x, axis=(2, 3))
