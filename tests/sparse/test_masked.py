"""MaskedModel: target collection, mask invariants, gradient masking."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.models import MLP, vgg11
from repro.sparse import MaskedModel, collect_sparsifiable


def mlp(seed=0):
    return MLP(in_features=20, hidden=(16, 12), num_classes=4, seed=seed)


class TestCollect:
    def test_collects_linear_and_conv_weights(self):
        model = vgg11(num_classes=10, width_mult=0.1, input_size=8, seed=0)
        names = [name for name, _ in collect_sparsifiable(model)]
        assert all(name.endswith(".weight") for name in names)
        assert len(names) == 8 + 1  # 8 convs + classifier

    def test_excludes_biases_and_norms(self):
        model = mlp()
        pairs = collect_sparsifiable(model)
        for _name, param in pairs:
            assert param.ndim >= 2  # biases are 1-D

    def test_include_modules_restriction(self):
        model = mlp()
        layers = [m for m in model.modules() if isinstance(m, nn.Linear)]
        pairs = collect_sparsifiable(model, include_modules=[layers[0]])
        assert len(pairs) == 1

    def test_no_targets_raises(self):
        class Empty(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(ValueError, match="no sparsifiable"):
            collect_sparsifiable(Empty())


class TestMasks:
    def test_global_sparsity_close_to_target(self):
        masked = MaskedModel(mlp(), 0.9, rng=np.random.default_rng(0))
        assert masked.global_sparsity() == pytest.approx(0.9, abs=0.02)

    def test_weights_zeroed_outside_mask(self):
        masked = MaskedModel(mlp(), 0.8, rng=np.random.default_rng(0))
        for target in masked.targets:
            assert np.all(target.param.data[~target.mask] == 0.0)

    def test_sparsity_zero_means_dense(self):
        masked = MaskedModel(mlp(), 0.0, rng=np.random.default_rng(0))
        assert masked.global_density() == pytest.approx(1.0)

    def test_mask_gradients(self):
        model = mlp()
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((4, 20)).astype(np.float32))
        nn.cross_entropy(model(x), np.array([0, 1, 2, 3])).backward()
        masked.mask_gradients()
        for target in masked.targets:
            assert np.all(target.param.grad[~target.mask] == 0.0)

    def test_apply_masks_after_manual_update(self):
        masked = MaskedModel(mlp(), 0.5, rng=np.random.default_rng(0))
        target = masked.targets[0]
        target.param.data = np.ones_like(target.param.data)
        masked.apply_masks()
        assert np.all(target.param.data[~target.mask] == 0.0)
        assert np.all(target.param.data[target.mask] == 1.0)

    def test_erk_distribution_differs_from_uniform(self):
        uniform = MaskedModel(mlp(), 0.9, distribution="uniform", rng=np.random.default_rng(0))
        erk = MaskedModel(mlp(1), 0.9, distribution="erk", rng=np.random.default_rng(0))
        uniform_densities = [t.density for t in uniform.targets]
        erk_densities = [t.density for t in erk.targets]
        assert np.allclose(uniform_densities, uniform_densities[0], atol=0.02)
        assert not np.allclose(erk_densities, erk_densities[0], atol=0.02)

    def test_invalid_sparsity_raises(self):
        with pytest.raises(ValueError):
            MaskedModel(mlp(), 1.0)
        with pytest.raises(ValueError):
            MaskedModel(mlp(), -0.1)

    def test_dense_layer_names_kept_out(self):
        model = mlp()
        all_names = [name for name, _ in collect_sparsifiable(model)]
        masked = MaskedModel(
            model, 0.9, rng=np.random.default_rng(0),
            dense_layer_names=(all_names[0],),
        )
        masked_names = {t.name for t in masked.targets}
        assert all_names[0] not in masked_names


class TestSetMasks:
    def test_set_masks_roundtrip(self):
        masked = MaskedModel(mlp(), 0.8, rng=np.random.default_rng(0))
        snapshot = masked.masks_snapshot()
        # Flip everything on, then restore.
        masked.set_masks(
            {name: np.ones_like(m) for name, m in snapshot.items()}, sync_budget=True
        )
        assert masked.global_density() == pytest.approx(1.0)
        masked.set_masks(snapshot, sync_budget=True)
        assert masked.global_sparsity() == pytest.approx(0.8, abs=0.02)

    def test_set_masks_unknown_name_raises(self):
        masked = MaskedModel(mlp(), 0.8, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            masked.set_masks({"nope": np.ones((2, 2), dtype=bool)}, sync_budget=True)

    def test_set_masks_shape_mismatch_raises(self):
        masked = MaskedModel(mlp(), 0.8, rng=np.random.default_rng(0))
        name = masked.targets[0].name
        with pytest.raises(ValueError, match="mask shape mismatch"):
            masked.set_masks({name: np.ones((1, 1), dtype=bool)}, sync_budget=True)

    def test_precomputed_masks_constructor(self):
        model = mlp()
        pairs = collect_sparsifiable(model)
        masks = {name: np.zeros(p.shape, dtype=bool) for name, p in pairs}
        for name, _p in pairs:
            masks[name].reshape(-1)[:10] = True
        masked = MaskedModel(model, 0.5, masks=masks)
        assert masked.total_active == 10 * len(pairs)

    def test_precomputed_masks_missing_layer_raises(self):
        model = mlp()
        with pytest.raises(KeyError, match="missing layer"):
            MaskedModel(model, 0.5, masks={})
