"""Model zoo: the architectures evaluated in the paper plus scaled stand-ins."""

from repro.models.char_gpt import CharGPT, TransformerBlock
from repro.models.mlp import MLP
from repro.models.vgg import VGG, VGG_CONFIGS, vgg11, vgg19
from repro.models.resnet import Bottleneck, ResNet, resnet50, resnet50_mini
from repro.models.gnn import GCNEncoder, GNNLinkModel, LinkPredictor
from repro.models.registry import MODEL_REGISTRY, build_model, register_model

__all__ = [
    "MODEL_REGISTRY",
    "build_model",
    "register_model",
    "MLP",
    "CharGPT",
    "TransformerBlock",
    "VGG",
    "VGG_CONFIGS",
    "vgg11",
    "vgg19",
    "ResNet",
    "Bottleneck",
    "resnet50",
    "resnet50_mini",
    "GCNEncoder",
    "GNNLinkModel",
    "LinkPredictor",
]
