"""Drop-and-grow engine edge cases and rarely-hit paths."""

import numpy as np
import pytest

from repro.models import MLP
from repro.optim import Adam
from repro.sparse import (
    DynamicSparseEngine,
    GradientGrowth,
    MaskedModel,
    MomentumGrowth,
    RandomGrowth,
    TrainingSchedule,
)


SCHEDULE = TrainingSchedule(total_steps=1000, delta_t=10)


def make(sparsity=0.5, growth=None, seed=0, schedule=SCHEDULE, **kwargs):
    model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    engine = DynamicSparseEngine(
        masked,
        growth if growth is not None else GradientGrowth(),
        schedule=schedule,
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )
    return model, masked, engine


def set_gradients(masked, rng):
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


class TestExtremeDensities:
    def test_nearly_dense_layer_no_grow_slots(self):
        # At sparsity ≈ 0, inactive pools are empty: update must be a no-op
        # that keeps the budget.
        model, masked, engine = make(sparsity=0.02)
        budget = masked.total_active
        set_gradients(masked, np.random.default_rng(0))
        engine.mask_update(10)
        assert masked.total_active == budget

    def test_extremely_sparse_keeps_at_least_one_per_layer(self):
        model, masked, engine = make(
            sparsity=0.98,
            schedule=SCHEDULE.with_overrides(drop_fraction=0.9, drop_schedule="constant"),
        )
        set_gradients(masked, np.random.default_rng(0))
        for step in (10, 20, 30):
            engine.mask_update(step)
            for target in masked.targets:
                assert target.active_count >= 1

    def test_zero_drop_fraction_rounds_to_noop(self):
        model, masked, engine = make(sparsity=0.5)
        engine.drop_schedule = lambda step: 1e-9
        set_gradients(masked, np.random.default_rng(0))
        record = engine.mask_update(10)
        assert record.total_dropped == 0
        assert record.total_grown == 0


class TestAllowRegrow:
    def test_regrow_enabled_keeps_budget(self):
        model, masked, engine = make(sparsity=0.5, allow_regrow=True)
        budget = masked.total_active
        rng = np.random.default_rng(0)
        for step in (10, 20, 30):
            set_gradients(masked, rng)
            engine.mask_update(step)
            assert masked.total_active == budget

    def test_regrow_can_reactivate_dropped(self):
        # Give dropped weights the largest gradients: with allow_regrow they
        # are eligible and the engine must not crash or lose budget.
        model, masked, engine = make(sparsity=0.5, allow_regrow=True)
        for target in masked.targets:
            target.param.grad = np.where(target.mask, 10.0, 0.0).astype(np.float32)
        budget = masked.total_active
        engine.mask_update(10)
        assert masked.total_active == budget


class TestOptimizers:
    def test_adam_state_reset_on_grow(self):
        model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=1e-3)
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=100, delta_t=10),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )
        rng = np.random.default_rng(2)
        # Populate Adam state.
        for target in masked.targets:
            target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)
        optimizer.step()
        before = {t.name: t.mask.copy() for t in masked.targets}
        set_gradients(masked, rng)
        engine.mask_update(10)
        for target in masked.targets:
            grown = ~before[target.name] & target.mask
            state = optimizer.state.get(id(target.param), {})
            for key in ("m", "v"):
                if key in state:
                    assert np.all(state[key][grown] == 0.0)

    def test_no_optimizer_is_fine(self):
        model, masked, engine = make(sparsity=0.5)
        assert engine.optimizer is None
        set_gradients(masked, np.random.default_rng(0))
        engine.mask_update(10)  # no crash


class TestGradEMA:
    def test_snfs_ema_maintained_only_when_needed(self):
        model, masked, engine = make(sparsity=0.5, growth=MomentumGrowth())
        assert engine._needs_ema
        rng = np.random.default_rng(0)
        set_gradients(masked, rng)
        engine.on_backward(step=1)
        assert engine._grad_ema
        # EMA should smooth: feed constant gradients, EMA converges to them.
        for _ in range(50):
            for target in masked.targets:
                target.param.grad = np.ones(target.param.shape, dtype=np.float32)
            engine.on_backward(step=2)
        for target in masked.targets:
            assert np.allclose(engine._grad_ema[target.name], 1.0, atol=0.01)

    def test_gradient_growth_skips_ema(self):
        model, masked, engine = make(sparsity=0.5, growth=GradientGrowth())
        set_gradients(masked, np.random.default_rng(0))
        engine.on_backward(step=1)
        assert not engine._grad_ema


class TestValidation:
    def test_bad_grow_allocation_raises(self):
        model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="grow_allocation"):
            DynamicSparseEngine(
                masked,
                RandomGrowth(),
                schedule=TrainingSchedule(total_steps=100),
                grow_allocation="sideways",
            )

    def test_proportional_allocation_keeps_budget(self):
        model, masked, engine = make(
            sparsity=0.6, growth=RandomGrowth(),
            global_drop=True, grow_allocation="proportional",
        )
        budget = masked.total_active
        rng = np.random.default_rng(0)
        for step in (10, 20, 30, 40):
            set_gradients(masked, rng)
            engine.mask_update(step)
            assert masked.total_active == budget


class TestFillDeficitExactness:
    def test_direct_fill_restores_dropped(self):
        """Regression: the vectorized _fill_deficit keeps k exact."""
        model, masked, engine = make(sparsity=0.5)
        target = masked.targets[0]
        budget_before = masked.total_active
        drop_idx = target.active_indices[:7].copy()
        target.mask.reshape(-1)[drop_idx] = False
        target.mark_mask_dirty()
        assert masked.total_active == budget_before - 7
        dropped = [np.empty(0, dtype=np.int64) for _ in masked.targets]
        dropped[0] = drop_idx
        filled = engine._fill_deficit(7, dropped)
        assert filled == 7
        assert masked.total_active == budget_before
        # The revived positions are exactly the dropped ones.
        assert np.all(target.mask.reshape(-1)[drop_idx])

    def test_fill_prefers_largest_magnitude(self):
        model, masked, engine = make(sparsity=0.5)
        target = masked.targets[0]
        flat = target.param.data.reshape(-1)
        drop_idx = target.active_indices[:6].copy()
        flat[drop_idx] = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7], dtype=np.float32)
        target.mask.reshape(-1)[drop_idx] = False
        target.mark_mask_dirty()
        dropped = [np.empty(0, dtype=np.int64) for _ in masked.targets]
        dropped[0] = drop_idx
        filled = engine._fill_deficit(3, dropped)
        assert filled == 3
        revived = drop_idx[target.mask.reshape(-1)[drop_idx]]
        np.testing.assert_allclose(
            np.sort(np.abs(flat[revived])), [0.7, 0.8, 0.9], atol=1e-6
        )

    def test_budget_exact_under_proportional_clamping(self):
        """Proportional allocation plus a full layer forces a deficit."""
        model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.6, rng=np.random.default_rng(0))
        # Saturate one layer so it has (almost) no inactive capacity.  The
        # budget is the source of truth, so the out-of-band mask edit must
        # be synced into it or the engine would prune the layer back.
        small = masked.targets[-1]
        small.mask = np.ones_like(small.mask)
        masked.budget.refresh_from_masks(masked)
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=1000, delta_t=10, drop_fraction=0.4),
            grow_allocation="proportional",
            rng=np.random.default_rng(1),
        )
        rng = np.random.default_rng(2)
        budget = masked.total_active
        for step in (10, 20, 30):
            set_gradients(masked, rng)
            record = engine.mask_update(step)
            assert record.total_dropped == record.total_grown
            assert masked.total_active == budget
