"""FLOPs profiles of the actual paper architectures (scaled)."""

import numpy as np

from repro.flops import profile_model, sparse_inference_flops
from repro.models import resnet50, resnet50_mini, vgg19
from repro.sparse import MaskedModel


class TestArchitectureProfiles:
    def test_vgg19_conv_flops_dominate(self):
        model = vgg19(num_classes=10, width_mult=0.25, input_size=16, seed=0)
        profile = profile_model(model, (3, 16, 16))
        conv_flops = sum(l.flops for l in profile.layers if l.kind == "conv")
        linear_flops = sum(l.flops for l in profile.layers if l.kind == "linear")
        assert conv_flops > 50 * linear_flops

    def test_resnet50_profile_counts(self):
        model = resnet50(num_classes=10, width_mult=0.125, seed=0)
        profile = profile_model(model, (3, 8, 8))
        assert sum(1 for l in profile.layers if l.kind == "conv") == 53
        assert sum(1 for l in profile.layers if l.kind == "linear") == 1

    def test_full_resnet_costs_more_than_mini(self):
        full = profile_model(resnet50(10, 0.125, seed=0), (3, 8, 8))
        mini = profile_model(resnet50_mini(10, 0.125, seed=0), (3, 8, 8))
        assert full.total_flops > 2 * mini.total_flops

    def test_erk_masked_vgg_flops_between_budget_and_dense(self):
        model = vgg19(num_classes=10, width_mult=0.2, input_size=12, seed=0)
        for sparsity in (0.8, 0.9, 0.95):
            masked = MaskedModel(
                vgg19(num_classes=10, width_mult=0.2, input_size=12, seed=0),
                sparsity, rng=np.random.default_rng(0),
            )
            profile = profile_model(model, (3, 12, 12))
            _, multiplier = sparse_inference_flops(profile, masked.masks_snapshot())
            assert 1.0 - sparsity < multiplier < 1.0  # ERK overweights cheap layers

    def test_flops_scale_quadratically_with_width(self):
        narrow = profile_model(
            vgg19(10, width_mult=0.125, input_size=12, seed=0), (3, 12, 12)
        ).total_flops
        wide = profile_model(
            vgg19(10, width_mult=0.25, input_size=12, seed=0), (3, 12, 12)
        ).total_flops
        # Doubling every channel roughly quadruples conv FLOPs.
        assert 2.5 < wide / narrow < 6.0

    def test_by_name_lookup(self):
        model = vgg19(num_classes=10, width_mult=0.1, input_size=8, seed=0)
        profile = profile_model(model, (3, 8, 8))
        lookup = {layer.name: layer for layer in profile.layers}
        assert "features.0.weight" in lookup
        assert lookup["features.0.weight"].kind == "conv"
