"""GCN encoder + MLP link predictor for the GNN experiments (Tables III/IV).

The paper applies DST-EE "to the two fully connected layers with uniform
sparsity ratios" of a link-prediction GNN.  We therefore build:

* :class:`GCNEncoder` — two graph-convolution layers
  (``relu(A_hat @ X @ W)``) producing node embeddings; and
* :class:`LinkPredictor` — the *two fully-connected layers* scoring an edge
  from the element-wise product of its endpoint embeddings.  These are the
  layers the sparsifier targets.

:class:`BoundLinkModel` fixes the graph, so a batch of edges is the whole
input, as the shared :class:`~repro.train.Trainer` expects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import nn
from repro.autograd import ops
from repro.autograd.sparse_ops import spmm
from repro.autograd.tensor import Tensor

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["GCNEncoder", "LinkPredictor", "GNNLinkModel", "BoundLinkModel"]


class GCNEncoder(nn.Module):
    """Two-layer graph convolutional encoder."""

    def __init__(self, in_features: int, hidden: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.lin1 = nn.Linear(in_features, hidden, bias=False, rng=rng)
        self.lin2 = nn.Linear(hidden, out_features, bias=False, rng=rng)
        self.relu = nn.ReLU()

    def forward(self, adjacency: sp.spmatrix, features: Tensor) -> Tensor:
        h = self.relu(spmm(adjacency, self.lin1(features)))
        return spmm(adjacency, self.lin2(h))


class LinkPredictor(nn.Module):
    """Two fully-connected layers scoring edges — the sparsified subnetwork."""

    def __init__(self, embed_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = nn.Linear(embed_dim, hidden, rng=rng)
        self.fc2 = nn.Linear(hidden, 1, rng=rng)
        self.relu = nn.ReLU()

    def forward(self, z_u: Tensor, z_v: Tensor) -> Tensor:
        pair = ops.mul(z_u, z_v)
        h = self.relu(self.fc1(pair))
        return self.fc2(h).reshape((-1,))


class GNNLinkModel(nn.Module):
    """End-to-end link-prediction model: GCN encoder + MLP predictor.

    ``sparse_target_modules`` lists the two FC layers the paper sparsifies;
    the encoder stays dense (matching the paper's setup).
    """

    def __init__(
        self,
        in_features: int,
        gcn_hidden: int = 64,
        embed_dim: int = 48,
        predictor_hidden: int = 256,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.encoder = GCNEncoder(in_features, gcn_hidden, embed_dim, rng)
        self.predictor = LinkPredictor(embed_dim, predictor_hidden, rng)

    def forward(self, adjacency: sp.spmatrix, features: Tensor, edges: np.ndarray) -> Tensor:
        """Return edge logits for ``edges`` of shape ``(k, 2)``."""
        z = self.encoder(adjacency, features)
        z_u = ops.getitem(z, edges[:, 0])
        z_v = ops.getitem(z, edges[:, 1])
        return self.predictor(z_u, z_v)

    def sparse_target_modules(self) -> list[nn.Module]:
        """The two fully-connected layers DST-EE sparsifies (paper §V.B)."""
        return [self.predictor.fc1, self.predictor.fc2]


class BoundLinkModel(GNNLinkModel):
    """A :class:`GNNLinkModel` bound to one graph: ``model(edges)`` scores its edges.

    Holds the adjacency and node features, so the trainer's ``model(inputs)``
    call takes an edge batch alone.  Parameter names are the unbound model's.
    """

    def __init__(self, adjacency: sp.spmatrix, features: np.ndarray, **kwargs):
        super().__init__(features.shape[1], **kwargs)
        self.adjacency = adjacency
        self.features = Tensor(features)

    def forward(self, edges) -> Tensor:
        edges = edges.data if isinstance(edges, Tensor) else edges
        return super().forward(self.adjacency, self.features, edges)
