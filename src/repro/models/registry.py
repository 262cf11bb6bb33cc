"""Named model builders — the architecture half of a serving artifact.

A serving artifact (:mod:`repro.serve.artifact`) stores CSR weights plus a
*model config* ``{"builder": name, "kwargs": {...}}``; at load time the
dense architecture is rebuilt from this registry and the compiled sparse
layers are swapped back in.  Keeping the mapping here (rather than pickling
model objects) makes artifacts portable across processes, Python versions,
and refactors of the model classes.

The registry is open: :func:`register_model` lets downstream code add its
own builders under new names.
"""

from __future__ import annotations

from typing import Callable

from repro.models.char_gpt import CharGPT
from repro.models.mlp import MLP
from repro.models.resnet import resnet50, resnet50_mini
from repro.models.vgg import vgg11, vgg19
from repro.nn.module import Module

__all__ = ["MODEL_REGISTRY", "build_model", "register_model"]

MODEL_REGISTRY: dict[str, Callable[..., Module]] = {
    "mlp": MLP,
    "char_gpt": CharGPT,
    "vgg11": vgg11,
    "vgg19": vgg19,
    "resnet50": resnet50,
    "resnet50_mini": resnet50_mini,
}


def register_model(name: str, builder: Callable[..., Module]) -> None:
    """Add (or replace) a named builder usable from serving artifacts."""
    MODEL_REGISTRY[name] = builder


def build_model(name: str, **kwargs) -> Module:
    """Instantiate the registered builder ``name`` with ``kwargs``."""
    try:
        builder = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model builder {name!r}; registered: {known}") from None
    return builder(**kwargs)
