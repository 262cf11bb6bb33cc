"""Benchmark-scale experiment configurations.

The paper's experiments (VGG-19/ResNet-50 on CIFAR & ImageNet, 100–250
epochs on 8 GPUs) are reproduced at laptop scale on the synthetic datasets
of :mod:`repro.data.synthetic`, since the real ones are not available
offline.  The scale is selectable with the ``REPRO_SCALE``
environment variable:

* ``small`` (default) — minutes on a CPU; 1 seed; reduced method grid is
  *not* applied: every method and sparsity of each table still runs.
* ``medium`` — larger data/models, 2 seeds.
* ``full``  — the largest practical CPU setting, 3 seeds (paper protocol).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.data.synthetic import cifar10_like, cifar100_like, imagenet_like
from repro.models import resnet50_mini, resnet50, vgg19

__all__ = [
    "Scale",
    "get_scale",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
    "table1_settings",
    "table2_settings",
    "gnn_settings",
    "fig3_settings",
]

# Method rows of Table I, in the paper's order (SIS's subdifferential solver
# is out of scope for this NumPy-only stack; the STR thresholding variant of
# repro.sparse.str_prune represents dense-to-sparse).  "dense" is the
# reference row.
TABLE1_METHODS = (
    "dense",
    "snip",
    "grasp",
    "synflow",
    "str",
    "deepr",
    "set",
    "rigl",
    "dst_ee",
)

# Method rows of Table II.
TABLE2_METHODS = (
    "dense",
    "snip",
    "grasp",
    "deepr",
    "snfs",
    "dsr",
    "set",
    "rigl",
    "mest",
    "rigl_itop",
    "dst_ee",
)


@dataclass
class Scale:
    """Size knobs shared by all benches."""

    name: str
    n_train: int
    n_test: int
    image_size: int
    epochs: int
    extended_epochs: int  # the paper's 250-epoch DST-EE rows
    batch_size: int
    delta_t: int
    drop_fraction: float
    seeds: tuple[int, ...]
    vgg_width: float
    resnet_width: float
    lr: float = 0.08
    cifar100_classes: int = 20
    imagenet_classes: int = 20
    imagenet_size: int = 12
    gnn_nodes: int = 400


_SCALES = {
    "small": Scale(
        name="small",
        n_train=1024,
        n_test=512,
        image_size=12,
        epochs=4,
        extended_epochs=6,
        batch_size=64,
        delta_t=6,
        drop_fraction=0.3,
        seeds=(0,),
        vgg_width=0.2,
        resnet_width=0.125,
        lr=0.05,
    ),
    "medium": Scale(
        name="medium",
        n_train=2048,
        n_test=768,
        image_size=12,
        epochs=6,
        extended_epochs=9,
        batch_size=64,
        delta_t=10,
        drop_fraction=0.3,
        seeds=(0, 1),
        vgg_width=0.25,
        resnet_width=0.2,
        lr=0.05,
        cifar100_classes=40,
        imagenet_classes=40,
    ),
    "full": Scale(
        name="full",
        n_train=4096,
        n_test=1024,
        image_size=16,
        epochs=12,
        extended_epochs=18,
        batch_size=128,
        delta_t=16,
        drop_fraction=0.3,
        seeds=(0, 1, 2),
        vgg_width=0.25,
        resnet_width=0.25,
        cifar100_classes=100,
        imagenet_classes=50,
        imagenet_size=16,
        gnn_nodes=800,
    ),
}


def get_scale() -> Scale:
    """Read the scale from ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small").lower()
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(f"REPRO_SCALE={name!r} unknown; choose from {sorted(_SCALES)}") from None


@dataclass
class TableSettings:
    """Everything a table bench needs: data, model factories, run kwargs."""

    scale: Scale
    datasets: dict = field(default_factory=dict)
    model_factories: dict = field(default_factory=dict)
    sparsities: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()

    def run_kwargs(self) -> dict:
        return dict(
            epochs=self.scale.epochs,
            batch_size=self.scale.batch_size,
            lr=self.scale.lr,
            delta_t=self.scale.delta_t,
            drop_fraction=self.scale.drop_fraction,
        )


def table1_settings() -> TableSettings:
    """VGG-19 & ResNet-50(family) on CIFAR-10/100-like at 90/95/98%."""
    scale = get_scale()
    datasets = {
        "cifar10": cifar10_like(
            n_train=scale.n_train,
            n_test=scale.n_test,
            image_size=scale.image_size,
            seed=7,
        ),
        "cifar100": cifar100_like(
            n_train=scale.n_train,
            n_test=scale.n_test,
            image_size=scale.image_size,
            n_classes=scale.cifar100_classes,
            seed=17,
        ),
    }

    def vgg_factory(num_classes: int) -> Callable:
        return lambda seed: vgg19(
            num_classes=num_classes,
            width_mult=scale.vgg_width,
            input_size=scale.image_size,
            seed=seed,
        )

    def resnet_factory(num_classes: int) -> Callable:
        return lambda seed: resnet50_mini(
            num_classes=num_classes,
            width_mult=scale.resnet_width,
            seed=seed,
        )

    model_factories = {
        "vgg19": vgg_factory,
        "resnet50": resnet_factory,
    }
    return TableSettings(
        scale=scale,
        datasets=datasets,
        model_factories=model_factories,
        sparsities=(0.9, 0.95, 0.98),
        methods=TABLE1_METHODS,
    )


def table2_settings() -> TableSettings:
    """ResNet-50(family) on ImageNet-like at 80/90% with FLOPs columns."""
    scale = get_scale()
    datasets = {
        "imagenet": imagenet_like(
            n_train=scale.n_train,
            n_test=scale.n_test,
            image_size=scale.imagenet_size,
            n_classes=scale.imagenet_classes,
            seed=27,
        ),
    }

    def resnet_factory(num_classes: int) -> Callable:
        return lambda seed: resnet50_mini(
            num_classes=num_classes,
            width_mult=scale.resnet_width,
            seed=seed,
        )

    return TableSettings(
        scale=scale,
        datasets=datasets,
        model_factories={"resnet50": resnet_factory},
        sparsities=(0.8, 0.9),
        methods=TABLE2_METHODS,
    )


@dataclass
class GNNSettings:
    """Tables III/IV knobs."""

    scale: Scale
    sparsities: tuple[float, ...] = (0.8, 0.9, 0.98)
    dst_ee_epochs: int = 12
    admm_epochs: int = 15  # three equal phases
    dense_epochs: int = 12

    def scaled(self) -> "GNNSettings":
        if self.scale.name == "full":
            self.dst_ee_epochs = 50
            self.admm_epochs = 60
            self.dense_epochs = 50
        elif self.scale.name == "medium":
            self.dst_ee_epochs = 25
            self.admm_epochs = 30
            self.dense_epochs = 25
        return self


def gnn_settings() -> GNNSettings:
    """Epoch budgets follow the paper's 50-vs-60 protocol, scaled."""
    return GNNSettings(scale=get_scale()).scaled()


@dataclass
class Fig3Settings:
    """Coefficient sweep of Figure 3."""

    scale: Scale
    sparsity: float = 0.95
    cifar100_coefficients: tuple[float, ...] = (1e-4, 1e-3, 5e-3)
    cifar10_coefficients: tuple[float, ...] = (5e-4, 1e-3, 5e-3)


def fig3_settings() -> Fig3Settings:
    return Fig3Settings(scale=get_scale())
