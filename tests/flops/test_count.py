"""FLOPs accounting: analytic formulas, profiling, sparse multipliers."""

import numpy as np
import pytest

from repro.flops import (
    conv2d_flops,
    linear_flops,
    profile_model,
    sparse_inference_flops,
    training_flops_multiplier,
)
from repro.models import MLP, vgg11, vgg19
from repro.sparse import MaskedModel


class TestAnalytic:
    def test_linear_flops(self):
        assert linear_flops(10, 5) == 100  # 2 * 10 * 5
        assert linear_flops(10, 5, bias=True) == 105

    def test_conv_flops(self):
        # 3 in, 8 out, 3x3 kernel, 4x4 output: 2*3*9 * 8 * 16
        assert conv2d_flops(3, 8, (3, 3), (4, 4)) == 2 * 3 * 9 * 8 * 16

    def test_conv_bias_flops(self):
        base = conv2d_flops(3, 8, (3, 3), (4, 4))
        assert conv2d_flops(3, 8, (3, 3), (4, 4), bias=True) == base + 8 * 16


class TestProfiling:
    def test_mlp_profile(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        assert len(profile.layers) == 2
        assert profile.total_flops == linear_flops(12, 8, bias=True) + linear_flops(8, 3, bias=True)

    def test_vgg_profile_counts_all_convs(self):
        model = vgg19(num_classes=10, width_mult=0.1, input_size=12, seed=0)
        profile = profile_model(model, (3, 12, 12))
        kinds = [layer.kind for layer in profile.layers]
        assert kinds.count("conv") == 16
        assert kinds.count("linear") == 1

    def test_profile_names_match_masked_model(self):
        model = vgg11(num_classes=10, width_mult=0.1, input_size=8, seed=0)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(0))
        profile = profile_model(model, (3, 8, 8))
        profile_names = {layer.name for layer in profile.layers}
        masked_names = {t.name for t in masked.targets}
        assert masked_names <= profile_names

    def test_profile_restores_forward(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile_model(model, (12,))
        # Forward still works after the instrumentation was removed.
        from repro.autograd import Tensor

        out = model(Tensor(np.zeros((2, 12), dtype=np.float32)))
        assert out.shape == (2, 3)

    def test_profile_restores_training_mode(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        model.train()
        profile_model(model, (12,))
        assert model.training

    def test_downsampling_reduces_flops(self):
        model_small = vgg11(num_classes=10, width_mult=0.1, input_size=8, seed=0)
        model_large = vgg11(num_classes=10, width_mult=0.1, input_size=16, seed=0)
        small = profile_model(model_small, (3, 8, 8)).total_flops
        large = profile_model(model_large, (3, 16, 16)).total_flops
        assert large > small


class TestSparseMultipliers:
    def test_dense_masks_give_one(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        masks = {
            layer.name: np.ones(layer.weight_shape, dtype=bool)
            for layer in profile.layers
        }
        flops, multiplier = sparse_inference_flops(profile, masks)
        assert multiplier == pytest.approx(1.0)
        assert flops == profile.total_flops

    def test_half_density_halves_flops(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        masks = {}
        for layer in profile.layers:
            mask = np.zeros(layer.weight_shape, dtype=bool)
            mask.reshape(-1)[: mask.size // 2] = True
            masks[layer.name] = mask
        _, multiplier = sparse_inference_flops(profile, masks)
        assert multiplier == pytest.approx(0.5, abs=0.05)

    def test_unmasked_layers_charged_fully(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        _, multiplier = sparse_inference_flops(profile, {})
        assert multiplier == pytest.approx(1.0)

    def test_training_multiplier_constant_schedule(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        masks = {
            layer.name: np.zeros(layer.weight_shape, dtype=bool)
            for layer in profile.layers
        }
        for mask in masks.values():
            mask.reshape(-1)[: mask.size // 4] = True
        multiplier = training_flops_multiplier(profile, masks)
        assert multiplier == pytest.approx(0.25, abs=0.05)

    def test_training_multiplier_dense_to_sparse_average(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        names = [layer.name for layer in profile.layers]
        schedule = [
            {name: 1.0 for name in names},
            {name: 0.5 for name in names},
            {name: 0.0 for name in names},
        ]
        multiplier = training_flops_multiplier(profile, schedule)
        assert multiplier == pytest.approx(0.5, abs=1e-6)

    def test_empty_schedule_raises(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        profile = profile_model(model, (12,))
        with pytest.raises(ValueError):
            training_flops_multiplier(profile, [])

    def test_erk_inference_multiplier_above_uniform_density(self):
        # ERK keeps small layers dense, so at equal budget its FLOPs
        # multiplier exceeds the raw density (the Table II phenomenon where
        # DST-EE's inference multiplier 0.42× > 1 - 0.8 sparsity budget 0.2×).
        model = vgg11(num_classes=10, width_mult=0.25, input_size=12, seed=0)
        masked = MaskedModel(model, 0.8, distribution="erk", rng=np.random.default_rng(0))
        profile = profile_model(model, (3, 12, 12))
        _, multiplier = sparse_inference_flops(profile, masked.masks_snapshot())
        assert multiplier > 0.2
