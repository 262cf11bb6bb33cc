"""Convolutional layer."""

from __future__ import annotations

import numpy as np

from repro.autograd import conv as conv_ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.rng import resolve_rng

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution with weight shape ``(out_ch, in_ch, kh, kw)``.

    ``forward_backend`` is an optional execution backend (installed by
    :func:`repro.sparse.kernels.install_training_backends`): a callable
    that either returns the layer output or ``None`` to decline, in which
    case the built-in dense path runs.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = (int(kh), int(kw))
        self.stride = stride
        self.padding = padding
        generator = resolve_rng(rng)
        self.weight = Parameter(
            np.empty((out_channels, in_channels, kh, kw), dtype=np.float32), name="weight"
        )
        init.kaiming_uniform_(self.weight, generator)
        if bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=np.float32), name="bias")
        else:
            self.bias = None
        self.forward_backend = None

    def forward(self, x: Tensor) -> Tensor:
        backend = self.forward_backend
        if backend is not None:
            out = backend(x)
            if out is not None:
                return out
        return conv_ops.conv2d(
            x, self.weight, bias=self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding}, "
            f"bias={self.bias is not None})"
        )
