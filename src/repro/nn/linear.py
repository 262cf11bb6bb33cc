"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.rng import resolve_rng

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` with weight shape ``(out, in)``.

    The ``(out, in)`` layout matches PyTorch so the ERK sparsity formulas in
    :mod:`repro.sparse.distribution` can use ``shape[0]``/``shape[1]``
    directly as fan-out/fan-in.

    ``forward_backend`` is an optional execution backend (installed by
    :func:`repro.sparse.kernels.install_training_backends`): a callable
    that either returns the layer output or ``None`` to decline, in which
    case the built-in dense path runs.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        generator = resolve_rng(rng)
        self.weight = Parameter(
            np.empty((out_features, in_features), dtype=np.float32), name="weight"
        )
        init.kaiming_uniform_(self.weight, generator)
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32), name="bias")
        else:
            self.bias = None
        self.forward_backend = None

    def forward(self, x: Tensor) -> Tensor:
        backend = self.forward_backend
        if backend is not None:
            out = backend(x)
            if out is not None:
                return out
        return ops.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
