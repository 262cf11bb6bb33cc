"""Synthetic image datasets: shapes, determinism, learnability signal."""

import hashlib

import numpy as np
import pytest
from scipy import ndimage

from repro.data import cifar10_like, cifar100_like, imagenet_like, make_image_classification
from repro.data.synthetic import _gaussian_blur, _render_split, _smooth_prototypes


def _render_oracle(rng, prototypes, n_samples, noise, max_shift):
    """The per-image roll loop the renderer must reproduce."""
    n_classes = prototypes.shape[0]
    labels = rng.integers(0, n_classes, size=n_samples).astype(np.int64)
    images = prototypes[labels].copy()
    contrast = rng.uniform(0.7, 1.3, size=(n_samples, 1, 1, 1)).astype(np.float32)
    brightness = rng.uniform(-0.1, 0.1, size=(n_samples, 1, 1, 1)).astype(np.float32)
    images = images * contrast + brightness
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n_samples, 2))
        for i in range(n_samples):
            dy, dx = shifts[i]
            if dy or dx:
                images[i] = np.roll(images[i], (dy, dx), axis=(1, 2))
    images += noise * rng.standard_normal(images.shape).astype(np.float32)
    images -= images.mean()
    images /= images.std() + 1e-8
    return images.astype(np.float32), labels


def _prototypes_oracle(rng, n_classes, channels, size, smoothing):
    """The prototypes as ``ndimage.gaussian_filter`` blurs them."""
    protos = rng.standard_normal((n_classes, channels, size, size))
    protos = ndimage.gaussian_filter(protos, sigma=(0, 0, smoothing, smoothing))
    flat = protos.reshape(n_classes, -1)
    flat = flat - flat.mean(axis=1, keepdims=True)
    flat = flat / (flat.std(axis=1, keepdims=True) + 1e-12)
    return flat.reshape(n_classes, channels, size, size).astype(np.float32)


# Each named variant's defaults (all have 3 channels).
VARIANTS = pytest.mark.parametrize(
    "n_classes, size, smoothing",
    [(10, 12, 1.5), (100, 12, 1.5), (100, 32, 1.5), (50, 16, 2.0)],
    ids=["cifar10_like", "cifar100_like-12px", "cifar100_like-32px", "imagenet_like"],
)


class TestPrototypes:
    @VARIANTS
    def test_numpy_blur_matches_ndimage_bitwise(self, n_classes, size, smoothing):
        for seed in range(50):
            got = _smooth_prototypes(np.random.default_rng(seed), n_classes, 3, size, smoothing)
            want = _prototypes_oracle(np.random.default_rng(seed), n_classes, 3, size, smoothing)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")

    @VARIANTS
    def test_float64_blur_matches_ndimage_bitwise(self, n_classes, size, smoothing):
        """Stricter than the float32 prototypes, which absorb a 1-ulp
        difference: the summation order is ndimage's too."""
        for seed in range(5):
            images = np.random.default_rng(seed).standard_normal((n_classes, 3, size, size))
            np.testing.assert_array_equal(
                _gaussian_blur(images, smoothing),
                ndimage.gaussian_filter(images, sigma=(0, 0, smoothing, smoothing)),
            )

    def test_benchmark_vgg_data_is_unchanged(self):
        """sha256 of the VGG benchmark's dataset, as the ndimage blur made it."""
        data = cifar100_like(image_size=12, n_classes=20, seed=1)
        digest = hashlib.sha256()
        for array in (data.train.inputs, data.train.targets, data.test.inputs, data.test.targets):
            digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "cb0998cbbe2657148018b4312f85bc9ded621f91a82f881428a5e9c0b92dc3f4"
        )


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("size,n_samples,max_shift", [(12, 257, 1), (9, 64, 2), (5, 3, 0)])
    def test_render_matches_per_image_loop(self, seed, size, n_samples, max_shift):
        protos = np.random.default_rng(99).standard_normal((7, 3, size, size))
        protos = protos.astype(np.float32)
        got = _render_split(np.random.default_rng(seed), protos, n_samples, 1.0, max_shift)
        want = _render_oracle(np.random.default_rng(seed), protos, n_samples, 1.0, max_shift)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_shapes_and_dtypes(self):
        data = make_image_classification(5, 100, 40, image_size=10, seed=0)
        assert data.train.inputs.shape == (100, 3, 10, 10)
        assert data.test.inputs.shape == (40, 3, 10, 10)
        assert data.train.inputs.dtype == np.float32
        assert data.train.targets.dtype == np.int64
        assert data.num_classes == 5
        assert data.input_shape == (3, 10, 10)

    def test_deterministic_given_seed(self):
        a = make_image_classification(4, 50, 20, seed=3)
        b = make_image_classification(4, 50, 20, seed=3)
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.train.targets, b.train.targets)

    def test_different_seeds_differ(self):
        a = make_image_classification(4, 50, 20, seed=3)
        b = make_image_classification(4, 50, 20, seed=4)
        assert not np.array_equal(a.train.inputs, b.train.inputs)

    def test_labels_cover_classes(self):
        data = make_image_classification(6, 600, 100, seed=0)
        assert set(np.unique(data.train.targets)) == set(range(6))

    def test_inputs_standardized(self):
        data = make_image_classification(4, 400, 100, seed=1)
        assert data.train.inputs.mean() == pytest.approx(0.0, abs=0.05)
        assert data.train.inputs.std() == pytest.approx(1.0, abs=0.05)

    def test_signal_exists_at_low_noise(self):
        # Class-mean images should be closer to their own prototype than to
        # other classes' — a nearest-centroid classifier must beat chance.
        data = make_image_classification(4, 400, 200, noise=0.5, max_shift=0, seed=2)
        centroids = np.stack([
            data.train.inputs[data.train.targets == c].mean(axis=0).reshape(-1)
            for c in range(4)
        ])
        test_flat = data.test.inputs.reshape(len(data.test.inputs), -1)
        distances = ((test_flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        acc = (predictions == data.test.targets).mean()
        assert acc > 0.5  # chance = 0.25

    def test_noise_makes_task_harder(self):
        def centroid_acc(noise):
            data = make_image_classification(4, 400, 200, noise=noise, max_shift=0, seed=2)
            centroids = np.stack([
                data.train.inputs[data.train.targets == c].mean(axis=0).reshape(-1)
                for c in range(4)
            ])
            flat = data.test.inputs.reshape(len(data.test.inputs), -1)
            pred = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
            return (pred == data.test.targets).mean()

        assert centroid_acc(0.3) > centroid_acc(20.0)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            make_image_classification(1, 10, 10)


class TestNamedVariants:
    def test_cifar10_like(self):
        data = cifar10_like(n_train=64, n_test=32)
        assert data.num_classes == 10
        assert data.name == "cifar10-like"

    def test_cifar100_like_class_knob(self):
        data = cifar100_like(n_train=64, n_test=32, n_classes=25)
        assert data.num_classes == 25
        assert data.name == "cifar100-like"

    def test_imagenet_like(self):
        data = imagenet_like(n_train=64, n_test=32, image_size=14, n_classes=7)
        assert data.num_classes == 7
        assert data.input_shape == (3, 14, 14)
