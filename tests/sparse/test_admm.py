"""ADMM prune-from-dense: projection, penalty, dual updates, hard prune."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, DataLoader
from repro.models import MLP
from repro.nn.losses import cross_entropy
from repro.optim import SGD
from repro.sparse import ADMMPruner, project_topk
from repro.train import Trainer


def make_model(seed=0):
    return MLP(in_features=10, hidden=(16,), num_classes=3, seed=seed)


class TestProjectTopK:
    def test_keeps_top_k(self):
        w = np.array([[3.0, -1.0, 0.5, -4.0]])
        projected = project_topk(w, density=0.5)
        assert np.allclose(projected, [[3.0, 0.0, 0.0, -4.0]])

    def test_preserves_values(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((6, 6))
        projected = project_topk(w, density=0.25)
        nonzero = projected != 0
        assert np.allclose(projected[nonzero], w[nonzero])

    def test_exact_count(self):
        w = np.random.default_rng(1).standard_normal(100)
        projected = project_topk(w, density=0.13)
        assert (projected != 0).sum() == 13

    def test_at_least_one_kept(self):
        projected = project_topk(np.ones(50), density=0.001)
        assert (projected != 0).sum() == 1

    def test_projection_is_idempotent(self):
        w = np.random.default_rng(2).standard_normal((5, 5))
        once = project_topk(w, 0.3)
        twice = project_topk(once, 0.3)
        assert np.allclose(once, twice)

    def test_projection_minimizes_distance(self):
        # Among all 2-sparse vectors, the projection must be the closest.
        w = np.array([1.0, -3.0, 2.0, 0.1])
        projected = project_topk(w, density=0.5)
        distance = np.linalg.norm(w - projected)
        # Any other support of size 2 must be at least as far.
        from itertools import combinations

        for support in combinations(range(4), 2):
            candidate = np.zeros(4)
            for index in support:
                candidate[index] = w[index]
            assert np.linalg.norm(w - candidate) >= distance - 1e-12


class TestADMMPruner:
    def test_z_initialized_sparse(self):
        pruner = ADMMPruner(make_model(), sparsity=0.8)
        for name, _param in pruner.targets:
            density = (pruner.Z[name] != 0).mean()
            assert density == pytest.approx(0.2, abs=0.05)

    def test_penalty_gradients_added(self):
        model = make_model()
        pruner = ADMMPruner(model, sparsity=0.8, rho=0.1)
        for _name, param in pruner.targets:
            param.grad = np.zeros(param.shape, dtype=np.float32)
        pruner.add_penalty_gradients()
        for name, param in pruner.targets:
            expected = 0.1 * (param.data - pruner.Z[name] + pruner.U[name])
            assert np.allclose(param.grad, expected, atol=1e-6)

    def test_penalty_gradient_without_existing_grad(self):
        model = make_model()
        pruner = ADMMPruner(model, sparsity=0.5, rho=0.2)
        pruner.add_penalty_gradients()
        for _name, param in pruner.targets:
            assert param.grad is not None

    def test_dual_update_reduces_residual_under_gd(self):
        # Pure ADMM dynamics: repeatedly descend the penalty and update duals;
        # the primal residual ||W - Z|| must shrink.
        model = make_model()
        pruner = ADMMPruner(model, sparsity=0.7, rho=0.5)
        initial = pruner.primal_residual()
        for _ in range(30):
            for name, param in pruner.targets:
                grad = 0.5 * (param.data - pruner.Z[name] + pruner.U[name])
                param.data = (param.data - 0.5 * grad).astype(param.dtype)
            pruner.dual_update()
        assert pruner.primal_residual() < initial

    def test_penalty_value_nonnegative(self):
        pruner = ADMMPruner(make_model(), sparsity=0.6)
        assert pruner.penalty_value() >= 0.0

    def test_hard_prune_density(self):
        pruner = ADMMPruner(make_model(), sparsity=0.75)
        masks = pruner.hard_prune_masks()
        for name, _param in pruner.targets:
            assert masks[name].mean() == pytest.approx(0.25, abs=0.05)

    def test_hard_prune_keeps_largest(self):
        model = make_model()
        pruner = ADMMPruner(model, sparsity=0.5)
        masks = pruner.hard_prune_masks()
        for name, param in pruner.targets:
            kept = np.abs(param.data[masks[name]])
            pruned = np.abs(param.data[~masks[name]])
            if kept.size and pruned.size:
                assert kept.min() >= pruned.max() - 1e-6

    def test_include_modules_restricts(self):
        model = make_model()
        first_linear = next(
            m for m in model.modules() if isinstance(m, nn.Linear)
        )
        pruner = ADMMPruner(model, sparsity=0.5, include_modules=[first_linear])
        assert len(pruner.targets) == 1

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            ADMMPruner(make_model(), sparsity=0.0)


class TestDualUpdateSchedule:
    """Driven by the Trainer, one ADMM phase of ``L`` epochs runs a dual update
    after every ``DUAL_EVERY``-th epoch except the last, on the W it ends with."""

    @pytest.mark.parametrize("phase, expected", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)])
    def test_updates_per_phase_length(self, phase, expected):
        assert ADMMPruner.DUAL_EVERY == 2
        rng = np.random.default_rng(0)
        data = ArrayDataset(
            rng.standard_normal((24, 10)).astype(np.float32), rng.integers(0, 3, 24)
        )
        model = make_model()
        pruner = ADMMPruner(model, sparsity=0.5)
        epoch_ends, updates = [], []

        def on_epoch_end(epoch):
            epoch_ends.append({name: param.data.copy() for name, param in pruner.targets})
            ADMMPruner.on_epoch_end(pruner, epoch)

        def dual_update():
            updates.append({name: param.data.copy() for name, param in pruner.targets})
            ADMMPruner.dual_update(pruner)

        pruner.on_epoch_end, pruner.dual_update = on_epoch_end, dual_update
        loader = DataLoader(data, batch_size=8, shuffle=True, rng=np.random.default_rng(0))
        Trainer(model, SGD(model.parameters(), lr=0.05), cross_entropy, loader,
                controller=pruner).fit(phase)
        assert len(updates) == expected
        # Each update sees the weights of the epoch end it fell due at.
        for k, weights in enumerate(updates):
            due = epoch_ends[(k + 1) * ADMMPruner.DUAL_EVERY - 1]
            for name in weights:
                np.testing.assert_array_equal(weights[name], due[name])
