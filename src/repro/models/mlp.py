"""Multi-layer perceptron (quickstart model and unit-test workhorse)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import nn

__all__ = ["MLP"]


class MLP(nn.Module):
    """Fully-connected classifier with ReLU activations.

    Parameters
    ----------
    in_features:
        Flattened input dimension (images are flattened internally).
    hidden:
        Sizes of hidden layers, e.g. ``(256, 128)``.
    num_classes:
        Output dimension (logits).
    seed:
        Seed for weight initialization.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (128, 64),
        num_classes: int = 10,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        layers: list[nn.Module] = []
        prev = int(in_features)
        for width in hidden:
            layers.append(nn.Linear(prev, int(width), rng=rng))
            layers.append(nn.ReLU())
            prev = int(width)
        layers.append(nn.Linear(prev, int(num_classes), rng=rng))
        self.body = nn.Sequential(*layers)
        self.in_features = int(in_features)

    def forward(self, x):
        if x.ndim > 2:
            x = x.reshape((x.shape[0], -1))
        return self.body(x)
