"""Synthetic image-classification datasets standing in for CIFAR / ImageNet.

The paper's experiments run on CIFAR-10/100 and ImageNet, which are not
available offline.  These generators produce *class-prototype Gaussian
mixtures rendered as low-frequency images*: each class owns a smooth random
prototype image, and every example is the prototype under a random contrast,
shift and additive noise.  The task is nonconvex for a CNN, benefits from
capacity, and degrades gracefully with sparsity — which is what the relative
comparisons in Tables I/II exercise; the benches check those orderings, not
the paper's absolute accuracies.

All generators take an explicit seed and return a
:class:`~repro.data.dataset.ClassificationData`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, ClassificationData

__all__ = [
    "make_image_classification",
    "cifar10_like",
    "cifar100_like",
    "imagenet_like",
]


def _gaussian_blur(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur over the two spatial axes of ``(N, C, H, W)`` images.

    Bitwise ``scipy.ndimage.gaussian_filter(images, (0, 0, sigma, sigma))``:
    the same normalised taps out to ndimage's default 4 sigmas, the same
    ``"reflect"`` boundary (numpy's ``"symmetric"`` pad), the same axis
    order, and each output sums the centre tap first, then the mirrored
    pairs from the outermost in, as ndimage's symmetric-kernel loop does.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    for axis in (2, 3):
        lines = np.moveaxis(images, axis, -1)
        n = lines.shape[-1]
        padded = np.pad(lines, [(0, 0)] * (lines.ndim - 1) + [(radius, radius)], mode="symmetric")
        out = padded[..., radius : radius + n] * taps[radius]
        for k in range(radius, 0, -1):
            left = padded[..., radius - k : radius - k + n]
            out += (left + padded[..., radius + k : radius + k + n]) * taps[radius - k]
        images = np.moveaxis(out, -1, axis)
    return images


def _smooth_prototypes(
    rng: np.random.Generator,
    n_classes: int,
    channels: int,
    size: int,
    smoothing: float,
) -> np.ndarray:
    """Random low-frequency class prototype images, unit-normalized."""
    protos = _gaussian_blur(rng.standard_normal((n_classes, channels, size, size)), smoothing)
    # Standardize each prototype to zero mean / unit per-pixel variance so
    # the additive noise level is directly an inverse SNR.
    flat = protos.reshape(n_classes, -1)
    flat = flat - flat.mean(axis=1, keepdims=True)
    flat = flat / (flat.std(axis=1, keepdims=True) + 1e-12)
    return flat.reshape(n_classes, channels, size, size).astype(np.float32)


def _render_split(
    rng: np.random.Generator,
    prototypes: np.ndarray,
    n_samples: int,
    noise: float,
    max_shift: int,
) -> tuple[np.ndarray, np.ndarray]:
    n_classes, channels, size, _ = prototypes.shape
    labels = rng.integers(0, n_classes, size=n_samples).astype(np.int64)
    images = prototypes[labels].copy()
    # Random per-example contrast and brightness jitter.
    contrast = rng.uniform(0.7, 1.3, size=(n_samples, 1, 1, 1)).astype(np.float32)
    brightness = rng.uniform(-0.1, 0.1, size=(n_samples, 1, 1, 1)).astype(np.float32)
    images = images * contrast + brightness
    # Random spatial shift (cheap stand-in for crop augmentation variation).
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n_samples, 2))
        # One roll per distinct (dy, dx): the same pixels as rolling each
        # image on its own.
        for dy, dx in np.unique(shifts, axis=0):
            if dy or dx:
                group = np.flatnonzero((shifts[:, 0] == dy) & (shifts[:, 1] == dx))
                images[group] = np.roll(images[group], (dy, dx), axis=(2, 3))
    images += noise * rng.standard_normal(images.shape).astype(np.float32)
    # Standardize globally so models start from a well-conditioned input.
    images -= images.mean()
    images /= images.std() + 1e-8
    return images.astype(np.float32), labels


def make_image_classification(
    n_classes: int,
    n_train: int,
    n_test: int,
    image_size: int = 12,
    channels: int = 3,
    noise: float = 1.0,
    smoothing: float = 1.5,
    max_shift: int = 1,
    seed: int = 0,
    name: str = "synthetic",
) -> ClassificationData:
    """Build a synthetic image-classification task.

    Parameters
    ----------
    n_classes, n_train, n_test:
        Task size.  Train/test examples are drawn i.i.d. from the same
        class-conditional distribution.
    image_size, channels:
        Spatial size (square) and channel count of the images.
    noise:
        Standard deviation of the additive Gaussian pixel noise relative to
        the unit-norm prototypes; larger values make the task harder.
    smoothing:
        Gaussian-blur sigma for the prototypes (controls how "image-like"
        and spatially correlated the classes are).
    max_shift:
        Maximum random circular shift in pixels, per example.
    seed:
        Seed for everything (prototypes and renders).
    name:
        Dataset identifier used in experiment reports.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(seed)
    prototypes = _smooth_prototypes(rng, n_classes, channels, image_size, smoothing)
    train_x, train_y = _render_split(rng, prototypes, n_train, noise, max_shift)
    test_x, test_y = _render_split(rng, prototypes, n_test, noise, max_shift)
    return ClassificationData(
        train=ArrayDataset(train_x, train_y),
        test=ArrayDataset(test_x, test_y),
        num_classes=n_classes,
        input_shape=(channels, image_size, image_size),
        name=name,
    )


def cifar10_like(
    n_train: int = 2048,
    n_test: int = 512,
    image_size: int = 12,
    seed: int = 0,
) -> ClassificationData:
    """CIFAR-10 stand-in: 10 classes, 3-channel small images."""
    return make_image_classification(
        n_classes=10,
        n_train=n_train,
        n_test=n_test,
        image_size=image_size,
        noise=1.2,
        seed=seed,
        name="cifar10-like",
    )


def cifar100_like(
    n_train: int = 2048,
    n_test: int = 512,
    image_size: int = 12,
    n_classes: int = 100,
    seed: int = 0,
) -> ClassificationData:
    """CIFAR-100 stand-in: many classes ⇒ harder, lower absolute accuracy."""
    return make_image_classification(
        n_classes=n_classes,
        n_train=n_train,
        n_test=n_test,
        image_size=image_size,
        noise=1.0,
        seed=seed,
        name="cifar100-like",
    )


def imagenet_like(
    n_train: int = 4096,
    n_test: int = 1024,
    image_size: int = 16,
    n_classes: int = 50,
    seed: int = 0,
) -> ClassificationData:
    """ImageNet stand-in: larger images, more classes, more intra-class noise."""
    return make_image_classification(
        n_classes=n_classes,
        n_train=n_train,
        n_test=n_test,
        image_size=image_size,
        noise=1.5,
        smoothing=2.0,
        max_shift=2,
        seed=seed,
        name="imagenet-like",
    )
