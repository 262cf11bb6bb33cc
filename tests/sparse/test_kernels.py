"""Sparse kernel backends: dense-vs-CSR parity, dispatch, cache invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    GradientGrowth,
    MaskedModel,
    TrainingSchedule,
    install_training_backends,
    remove_training_backends,
    select_backend,
)
from repro.sparse.kernels import (
    BACKEND_ENV,
    CsrMatmul,
    resolve_mode,
)

RNG = np.random.default_rng(0)


def mlp_setup(sparsity=0.9, seed=0):
    model = MLP(in_features=24, hidden=(32, 16), num_classes=5, seed=seed)
    masked = MaskedModel(
        model, sparsity, distribution="uniform", rng=np.random.default_rng(seed)
    )
    return model, masked


def conv_setup(sparsity=0.9, seed=0):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, stride=1, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 4, 3, stride=2, padding=1, rng=rng),
    )
    masked = MaskedModel(
        model, sparsity, distribution="uniform", rng=np.random.default_rng(seed + 1)
    )
    return model, masked


def run_forward_backward(model, x, y):
    model.zero_grad()
    loss = nn.cross_entropy(model(x), y)
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    return loss.item(), grads


class TestLinearParity:
    def test_train_mode_forward_and_grad_parity(self):
        model, masked = mlp_setup()
        x = Tensor(RNG.standard_normal((8, 24)).astype(np.float32))
        y = RNG.integers(0, 5, size=8)
        loss_dense, grads_dense = run_forward_backward(model, x, y)

        report = install_training_backends(masked, mode="csr", min_size=1)
        assert set(report.values()) == {"csr"}
        loss_csr, grads_csr = run_forward_backward(model, x, y)

        assert loss_csr == pytest.approx(loss_dense, abs=1e-5)
        for name in grads_dense:
            np.testing.assert_allclose(
                grads_csr[name], grads_dense[name], atol=1e-5,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_eval_mode_parity(self):
        model, masked = mlp_setup()
        x = Tensor(RNG.standard_normal((4, 24)).astype(np.float32))
        model.eval()
        expected = model(x).data
        install_training_backends(masked, mode="csr", min_size=1)
        got = model(x).data
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_declines_non_float32_input(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        x = Tensor(RNG.standard_normal((4, 24)))  # float64 stays float64
        x.data = x.data.astype(np.float64)
        out = model(x)  # falls back to the dense path, no crash
        assert out.shape == (4, 5)

    def test_remove_backends_restores_dense_path(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        remove_training_backends(model)
        for module in model.modules():
            if isinstance(module, (nn.Linear, nn.Conv2d)):
                assert module.forward_backend is None


class TestConvParity:
    def test_train_mode_forward_and_grad_parity(self):
        model, masked = conv_setup()
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)).astype(np.float32))
        model.train()
        dense_out = model(x)
        dense_out.backward(np.ones(dense_out.shape, dtype=np.float32))
        grads_dense = {name: p.grad.copy() for name, p in model.named_parameters()}
        model.zero_grad()

        report = install_training_backends(masked, mode="csr", min_size=1)
        assert set(report.values()) == {"csr"}
        csr_out = model(x)
        np.testing.assert_allclose(csr_out.data, dense_out.data, atol=1e-5)
        csr_out.backward(np.ones(csr_out.shape, dtype=np.float32))
        for name, param in model.named_parameters():
            np.testing.assert_allclose(
                param.grad, grads_dense[name], atol=1e-4,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_eval_mode_parity(self):
        model, masked = conv_setup()
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)).astype(np.float32))
        model.eval()
        expected = model(x).data
        install_training_backends(masked, mode="csr", min_size=1)
        np.testing.assert_allclose(model(x).data, expected, atol=1e-5)


class TestDispatch:
    def test_select_backend_threshold(self):
        assert select_backend(0.05, 1 << 20, "auto", 0.12, 1024) == "csr"
        assert select_backend(0.5, 1 << 20, "auto", 0.12, 1024) == "dense"
        assert select_backend(0.05, 256, "auto", 0.12, 1024) == "dense"  # too small
        assert select_backend(0.5, 256, "csr") == "csr"  # explicit wins
        assert select_backend(0.01, 1 << 20, "dense") == "dense"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "csr")
        assert resolve_mode() == "csr"
        monkeypatch.setenv(BACKEND_ENV, "dense")
        assert resolve_mode() == "dense"
        assert resolve_mode("auto") == "auto"  # explicit argument wins
        monkeypatch.setenv(BACKEND_ENV, "nonsense")
        with pytest.raises(ValueError, match="unknown sparse backend"):
            resolve_mode()

    def test_install_dense_mode_removes_backends(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        report = install_training_backends(masked, mode="dense")
        assert set(report.values()) == {"dense"}
        for module in model.modules():
            if isinstance(module, nn.Linear):
                assert module.forward_backend is None

    def test_auto_respects_per_layer_density(self):
        model, masked = mlp_setup(sparsity=0.9)
        report = install_training_backends(
            masked, mode="auto", density_threshold=0.12, min_size=1
        )
        for target in masked.targets:
            expected = "csr" if target.density <= 0.12 else "dense"
            assert report[target.name] == expected


class TestIncrementalRebuild:
    def test_structure_reused_when_mask_unchanged(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        x = Tensor(RNG.standard_normal((4, 24)).astype(np.float32))
        model(x)
        kernels = [
            m.forward_backend for m in model.modules()
            if isinstance(m, nn.Linear) and m.forward_backend is not None
        ]
        structures = [
            (id(k.matmul.csr.indices), id(k.matmul.csr_t.indices)) for k in kernels
        ]
        model(x)  # weights untouched, masks untouched -> same structure arrays
        for kernel, (csr_id, csr_t_id) in zip(kernels, structures):
            assert id(kernel.matmul.csr.indices) == csr_id
            assert id(kernel.matmul.csr_t.indices) == csr_t_id

    def test_structure_rebuilt_only_for_changed_layers(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        x = Tensor(RNG.standard_normal((4, 24)).astype(np.float32))
        model(x)
        kernels = {
            t.name: m.forward_backend
            for t in masked.targets
            for m in model.modules()
            if isinstance(m, nn.Linear) and m.forward_backend is not None
            and m.weight is t.param
        }
        changed = masked.targets[0]
        untouched = masked.targets[1]
        before = {
            name: k.matmul.structure_version for name, k in kernels.items()
        }
        # Flip one weight of one layer on (mask edit via the public setter).
        new_mask = changed.mask.copy()
        new_mask.reshape(-1)[changed.inactive_indices[0]] = True
        changed.mask = new_mask
        model(x)
        assert kernels[changed.name].matmul.structure_version != before[changed.name]
        assert kernels[untouched.name].matmul.structure_version == before[untouched.name]

    def test_csr_values_track_weight_updates(self):
        model, masked = mlp_setup()
        install_training_backends(masked, mode="csr", min_size=1)
        x = Tensor(RNG.standard_normal((4, 24)).astype(np.float32))
        first = model(x).data.copy()
        for target in masked.targets:
            target.param.data *= 2.0
        second = model(x).data
        assert not np.allclose(second, first)


class TestCsrMatmul:
    def test_matches_dense_products(self):
        w = RNG.standard_normal((12, 20)).astype(np.float32)
        mask = RNG.random((12, 20)) < 0.3
        w *= mask
        matmul = CsrMatmul(w.shape)
        matmul.sync(w.reshape(-1), np.flatnonzero(mask.reshape(-1)), version=0)
        x = RNG.standard_normal((7, 20)).astype(np.float32)
        g = RNG.standard_normal((7, 12)).astype(np.float32)
        np.testing.assert_allclose(matmul.matmul_xwt(x), x @ w.T, atol=1e-5)
        np.testing.assert_allclose(matmul.matmul_gw(g), g @ w, atol=1e-5)

    def test_empty_mask(self):
        w = np.zeros((4, 6), dtype=np.float32)
        matmul = CsrMatmul(w.shape)
        matmul.sync(w.reshape(-1), np.flatnonzero(w.reshape(-1)), version=0)
        x = RNG.standard_normal((3, 6)).astype(np.float32)
        np.testing.assert_allclose(matmul.matmul_xwt(x), np.zeros((3, 4)))


class TestCachedIndexProperty:
    @given(
        sparsity=st.floats(min_value=0.3, max_value=0.95),
        drop_fraction=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_cached_indices_match_flatnonzero_after_rounds(
        self, sparsity, drop_fraction, seed
    ):
        """The satellite property: caches always agree with the mask."""
        model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=seed)
        masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(
                total_steps=100,
                delta_t=10,
                drop_fraction=drop_fraction,
            ),
            rng=np.random.default_rng(seed + 1),
        )
        rng = np.random.default_rng(seed + 2)
        for step in (10, 20, 30):
            for target in masked.targets:
                target.param.grad = rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
            engine.mask_update(step)
            for target in masked.targets:
                flat = target.mask.reshape(-1)
                np.testing.assert_array_equal(
                    target.active_indices, np.flatnonzero(flat)
                )
                np.testing.assert_array_equal(
                    target.inactive_indices, np.flatnonzero(~flat)
                )

    def test_mask_setter_bumps_version_and_refreshes_caches(self):
        _, masked = mlp_setup()
        target = masked.targets[0]
        _ = target.active_indices
        version = target.mask_version
        target.mask = np.ones_like(target.mask)
        assert target.mask_version > version
        assert target.active_indices.size == target.size
        assert target.inactive_indices.size == 0

    def test_set_masks_refreshes_target_density(self):
        """Satellite regression: density must follow replaced masks."""
        _, masked = mlp_setup(sparsity=0.8)
        target = masked.targets[0]
        assert target.target_density == pytest.approx(0.2, abs=0.05)
        masked.set_masks({target.name: np.ones_like(target.mask)}, sync_budget=True)
        assert target.target_density == pytest.approx(1.0)
        assert target.density == pytest.approx(1.0)


class TestEngineWithBackends:
    def test_training_with_engine_and_csr_keeps_invariants(self):
        model, masked = mlp_setup(sparsity=0.9)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        engine = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=1e-3),
            schedule=TrainingSchedule(total_steps=200, delta_t=5),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )
        install_training_backends(masked, mode="csr", min_size=1)
        masked.bind_optimizer(optimizer)
        budget = masked.total_active
        x = Tensor(RNG.standard_normal((8, 24)).astype(np.float32))
        y = RNG.integers(0, 5, size=8)
        for step in range(1, 21):
            model.zero_grad()
            loss = nn.cross_entropy(model(x), y)
            loss.backward()
            if not engine.on_backward(step):
                optimizer.step()
                engine.after_step(step)
            assert masked.total_active == budget
            for target in masked.targets:
                assert np.all(target.param.data[~target.mask] == 0.0)
        assert len(engine.history) == 4  # steps 5, 10, 15, 20
