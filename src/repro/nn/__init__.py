"""Neural-network layers built on :mod:`repro.autograd`.

The public API mirrors the familiar ``torch.nn`` names at the scale this
reproduction needs: modules auto-register parameters, ``train()``/``eval()``
switch batch-norm statistics, and losses fuse numerically stable primitives.
"""

from repro.nn.module import Module, Parameter, Sequential, Identity
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.embedding import Embedding
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.nn.attention import CausalSelfAttention
from repro.nn.activations import GELU, ReLU
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    huber_loss,
    lm_cross_entropy,
)
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Identity",
    "Linear",
    "Conv2d",
    "Embedding",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "CausalSelfAttention",
    "GELU",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "cross_entropy",
    "lm_cross_entropy",
    "binary_cross_entropy_with_logits",
    "huber_loss",
    "init",
]
