"""Reverse-mode automatic differentiation on numpy arrays.

This package is the lowest substrate of the reproduction: a small but complete
autograd engine in the spirit of PyTorch, sufficient to train the CNN / GNN
models the DST-EE paper evaluates.  The public surface is:

* :class:`~repro.autograd.tensor.Tensor` — an ndarray wrapper that records a
  computation graph and supports ``backward()``.
* :func:`~repro.autograd.tensor.no_grad` — context manager disabling graph
  recording (used for evaluation and for the mask surgery in drop-and-grow).
* functional ops re-exported from :mod:`~repro.autograd.ops`,
  :mod:`~repro.autograd.conv` and :mod:`~repro.autograd.sparse_ops`.
* :func:`~repro.autograd.gradcheck.gradcheck` — numerical gradient checking
  used extensively in the test-suite.
"""

from repro.autograd.tensor import DEFAULT_DTYPE, Tensor, is_grad_enabled, no_grad
from repro.autograd.ops import (
    abs as abs_,
    exp,
    log,
    log_softmax,
    matmul,
    mean,
    relu,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    sum as sum_,
    tanh,
    transpose,
    where,
)
from repro.autograd.conv import conv2d, max_pool2d
from repro.autograd.sparse_ops import spmm
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "DEFAULT_DTYPE",
    "abs_",
    "exp",
    "log",
    "log_softmax",
    "matmul",
    "mean",
    "relu",
    "reshape",
    "sigmoid",
    "softmax",
    "sqrt",
    "sum_",
    "tanh",
    "transpose",
    "where",
    "conv2d",
    "max_pool2d",
    "spmm",
    "gradcheck",
]
