"""Token/position embedding lookup with sparse-row gradient accumulation.

``Embedding`` is a learned table of shape ``(num_embeddings,
embedding_dim)`` indexed by integer ids.  The forward pass is one
:func:`repro.autograd.ops.embedding` node, whose backward sums the
gradient rows of each id (a stable argsort, then one sequential
``np.add.reduce`` per id, bitwise what ``np.add.at`` gives) into a zeroed
table — so the gradient accumulated into the table is *sparse by
construction*: only rows touched by the batch receive non-zero gradient,
with repeated ids summed exactly as a dense one-hot matmul would.  That
property is what lets `MaskedModel` sparsify embedding tables and what the
touched-row optimizer binding in ``repro.sparse.masked`` relies on.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter
from repro.rng import resolve_rng

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer ids to ``embedding_dim``-vectors.

    Rows are initialized from N(0, 0.02**2) — the GPT-family convention,
    small enough that pre-LayerNorm residual streams start near zero.
    Indices may be a :class:`Tensor` or ndarray of any integer dtype and
    any shape; the output has shape ``indices.shape + (embedding_dim,)``.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, rng=None):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        rng = resolve_rng(rng)
        table = rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim))
        self.weight = Parameter(table.astype(np.float32), name="embedding")

    def forward(self, indices) -> Tensor:
        return ops.embedding(self.weight, indices)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"
