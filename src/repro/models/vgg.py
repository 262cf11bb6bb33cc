"""VGG family (Simonyan & Zisserman) in the CIFAR configuration.

``vgg19`` reproduces the paper's 16-conv + classifier layout exactly; the
``width_mult`` knob scales the channel counts so the same architecture runs
at laptop scale on the synthetic stand-ins of :mod:`repro.data.synthetic`.  Max-pool
stages are skipped automatically once the spatial size reaches 1, which lets
the 5-stage configuration run on small synthetic images; the classifier is a
single fully-connected layer on globally-pooled features, as in CIFAR VGG.
"""

from __future__ import annotations

import numpy as np

from repro import nn

__all__ = ["VGG", "vgg11", "vgg19", "VGG_CONFIGS"]

VGG_CONFIGS: dict[str, list] = {
    # Numbers are output channels, "M" is a 2x2 max-pool.
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg19": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, 256, "M",
        512, 512, 512, 512, "M",
        512, 512, 512, 512, "M",
    ],
}


class VGG(nn.Module):
    """Configurable VGG with batch norm.

    Parameters
    ----------
    config:
        A list of channel counts and ``"M"`` pool markers
        (see :data:`VGG_CONFIGS`).
    num_classes:
        Classifier output dimension.
    in_channels:
        Input image channels.
    width_mult:
        Multiplier on every channel count (minimum 8 channels per layer).
    input_size:
        Expected spatial size; pools that would shrink below 1 px are skipped.
    seed:
        Weight-init seed.
    """

    def __init__(
        self,
        config: list,
        num_classes: int = 10,
        in_channels: int = 3,
        width_mult: float = 1.0,
        input_size: int = 32,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        layers: list[nn.Module] = []
        channels = in_channels
        spatial = input_size
        width = 8
        for item in config:
            if item == "M":
                if spatial >= 2:
                    layers.append(nn.MaxPool2d(2))
                    spatial //= 2
                continue
            width = max(8, int(round(item * width_mult)))
            layers.append(
                nn.Conv2d(channels, width, 3, padding=1, bias=False, rng=rng)
            )
            layers.append(nn.BatchNorm2d(width))
            layers.append(nn.ReLU())
            channels = width
        self.features = nn.Sequential(*layers)
        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(channels, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x):
        x = self.features(x)
        x = self.pool(x)
        return self.classifier(x)


def vgg11(num_classes: int = 10, width_mult: float = 1.0, input_size: int = 32,
          in_channels: int = 3, seed: int = 0) -> VGG:
    """VGG-11 (8 conv layers), the fast member of the family."""
    return VGG(
        VGG_CONFIGS["vgg11"],
        num_classes=num_classes,
        in_channels=in_channels,
        width_mult=width_mult,
        input_size=input_size,
        seed=seed,
    )


def vgg19(num_classes: int = 10, width_mult: float = 1.0, input_size: int = 32,
          in_channels: int = 3, seed: int = 0) -> VGG:
    """VGG-19 (16 conv layers) — the architecture of the paper's Table I."""
    return VGG(
        VGG_CONFIGS["vgg19"],
        num_classes=num_classes,
        in_channels=in_channels,
        width_mult=width_mult,
        input_size=input_size,
        seed=seed,
    )
