"""Autograd support for fixed sparse matrices (GNN adjacency propagation).

Graph neural networks propagate node features with ``A_hat @ X`` where
``A_hat`` is a (normalized) adjacency matrix.  The adjacency is structural
data, never trained, so it participates in the graph only as a constant:
:func:`spmm` differentiates through ``X`` alone using ``A_hat.T`` on the
backward pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.autograd.tensor import Tensor, ensure_tensor

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["spmm"]


def spmm(adjacency: sp.spmatrix, x) -> Tensor:
    """Sparse-dense product ``adjacency @ x`` with gradient w.r.t. ``x``.

    Parameters
    ----------
    adjacency:
        A scipy sparse matrix of shape ``(M, N)``; treated as a constant.
    x:
        Dense tensor of shape ``(N, D)``.
    """
    import scipy.sparse as sp

    if not sp.issparse(adjacency):
        raise TypeError(f"spmm expects a scipy sparse matrix, got {type(adjacency)!r}")
    x = ensure_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"spmm expects a 2-D feature matrix, got shape {x.shape}")
    adjacency = adjacency.tocsr()
    out_data = np.asarray(adjacency @ x.data, dtype=x.dtype)
    adjacency_t = adjacency.T.tocsr()

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.asarray(adjacency_t @ grad, dtype=x.dtype))

    return Tensor._make(out_data, (x,), backward)
