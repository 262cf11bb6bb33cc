"""ResNet family (He et al.) with bottleneck blocks, CIFAR-style stem.

``resnet50`` reproduces the [3, 4, 6, 3] bottleneck layout of the paper's
Tables I/II.  ``resnet50_mini`` is the same architecture family with
[1, 1, 1, 1] blocks and a width multiplier — used by the benchmark harness so
a full method-comparison sweep completes in minutes on CPU.
"""

from __future__ import annotations

import numpy as np

from repro import nn

__all__ = ["ResNet", "Bottleneck", "BasicBlock", "resnet50", "resnet50_mini", "resnet20"]


class BasicBlock(nn.Module):
    """Two 3x3 convs with identity/projection shortcut (ResNet-18/20 style)."""

    expansion = 1

    def __init__(self, in_channels: int, channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.relu = nn.ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x):
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu(out + self.shortcut(x))


class Bottleneck(nn.Module):
    """1x1 → 3x3 → 1x1 bottleneck with 4x expansion (ResNet-50 style)."""

    expansion = 4

    def __init__(self, in_channels: int, channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(channels)
        self.conv3 = nn.Conv2d(channels, out_channels, 1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        self.relu = nn.ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x):
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        return self.relu(out + self.shortcut(x))


class ResNet(nn.Module):
    """Configurable ResNet with a CIFAR stem (3x3 conv, no initial max-pool).

    Parameters
    ----------
    block:
        :class:`BasicBlock` or :class:`Bottleneck`.
    layers:
        Blocks per stage, e.g. ``[3, 4, 6, 3]`` for ResNet-50.
    num_classes:
        Classifier output dimension.
    width_mult:
        Multiplier on stage widths (64/128/256/512), minimum 8.
    in_channels:
        Input channels.
    seed:
        Weight-init seed.
    """

    def __init__(
        self,
        block,
        layers: list[int],
        num_classes: int = 10,
        width_mult: float = 1.0,
        in_channels: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)

        def scaled(width: int) -> int:
            return max(8, int(round(width * width_mult)))

        stem_width = scaled(64)
        self.conv1 = nn.Conv2d(in_channels, stem_width, 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(stem_width)
        self.relu = nn.ReLU()

        current = stem_width
        stages = []
        for stage_index, (width, blocks) in enumerate(
            zip([64, 128, 256, 512], layers)
        ):
            stride = 1 if stage_index == 0 else 2
            stage_width = scaled(width)
            blocks_list = []
            for block_index in range(blocks):
                blocks_list.append(
                    block(current, stage_width, stride if block_index == 0 else 1, rng)
                )
                current = stage_width * block.expansion
            stages.append(nn.Sequential(*blocks_list))
        self.layer1, self.layer2, self.layer3, self.layer4 = (
            stages if len(stages) == 4 else stages + [nn.Identity()] * (4 - len(stages))
        )
        self.pool = nn.GlobalAvgPool2d()
        self.fc = nn.Linear(current, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x):
        x = self.relu(self.bn1(self.conv1(x)))
        x = self.layer1(x)
        x = self.layer2(x)
        x = self.layer3(x)
        x = self.layer4(x)
        x = self.pool(x)
        return self.fc(x)


def resnet50(num_classes: int = 10, width_mult: float = 1.0, in_channels: int = 3,
             seed: int = 0) -> ResNet:
    """ResNet-50 ([3, 4, 6, 3] bottlenecks) — the paper's main CNN."""
    return ResNet(Bottleneck, [3, 4, 6, 3], num_classes=num_classes,
                  width_mult=width_mult, in_channels=in_channels, seed=seed)


def resnet50_mini(num_classes: int = 10, width_mult: float = 0.25, in_channels: int = 3,
                  seed: int = 0) -> ResNet:
    """Same bottleneck family at [1, 1, 1, 1] depth — benchmark-scale stand-in."""
    return ResNet(Bottleneck, [1, 1, 1, 1], num_classes=num_classes,
                  width_mult=width_mult, in_channels=in_channels, seed=seed)


def resnet20(num_classes: int = 10, width_mult: float = 1.0, in_channels: int = 3,
             seed: int = 0) -> ResNet:
    """CIFAR ResNet-20 analogue with basic blocks (ablation model)."""
    return ResNet(BasicBlock, [3, 3, 3], num_classes=num_classes,
                  width_mult=width_mult, in_channels=in_channels, seed=seed)
