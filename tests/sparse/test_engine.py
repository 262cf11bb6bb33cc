"""Drop-and-grow engine: the Algorithm 1 invariants.

These tests fabricate gradients directly so every drop/grow decision is
fully controlled, then check the paper's semantics:

* the global non-zero budget is exact and constant across rounds;
* drops remove the smallest-|w| active weights;
* growth activates the top-score inactive weights;
* newly grown weights start at zero with zeroed momentum;
* counters advance and ``t < stop_step`` freezes the topology;
* DST-EE with c=0 makes the same choices as RigL.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    FixedMaskController,
    GradientGrowth,
    MaskedModel,
    RandomGrowth,
    SignFlipDrop,
    TrainingSchedule,
)


SCHEDULE = TrainingSchedule(total_steps=1000, delta_t=10, drop_fraction=0.3)


def make_setup(sparsity=0.5, growth=None, seed=0, schedule=SCHEDULE, **engine_kwargs):
    model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    engine = DynamicSparseEngine(
        masked,
        growth if growth is not None else GradientGrowth(),
        schedule=schedule,
        optimizer=optimizer,
        rng=np.random.default_rng(seed + 1),
        **engine_kwargs,
    )
    return model, masked, optimizer, engine


def set_gradients(masked, rng):
    """Give every target a fresh dense gradient."""
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


class TestBudgetInvariant:
    def test_active_count_constant_over_rounds(self):
        model, masked, opt, engine = make_setup(sparsity=0.6)
        rng = np.random.default_rng(0)
        budget = masked.total_active
        for step in (10, 20, 30, 40):
            # Make weights move a bit between rounds.
            for target in masked.targets:
                target.param.data += 0.01 * rng.standard_normal(target.param.shape).astype(np.float32)
                target.param.data *= target.mask
            set_gradients(masked, rng)
            engine.mask_update(step)
            assert masked.total_active == budget

    def test_dropped_equals_grown(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        set_gradients(masked, np.random.default_rng(0))
        record = engine.mask_update(10)
        assert record.total_dropped == record.total_grown
        assert record.total_dropped > 0

    def test_weights_outside_mask_are_zero_after_update(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        set_gradients(masked, np.random.default_rng(0))
        engine.mask_update(10)
        for target in masked.targets:
            assert np.all(target.param.data[~target.mask] == 0.0)


class TestDropSemantics:
    def test_drops_smallest_magnitude(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        target = masked.targets[0]
        # Construct distinct magnitudes so the drop set is deterministic.
        rng = np.random.default_rng(3)
        values = (rng.permutation(target.size) + 1.0).astype(np.float32) / target.size
        target.param.data = (values.reshape(target.param.shape)) * target.mask
        active_idx = np.flatnonzero(target.mask.reshape(-1))
        k = int(0.3 * active_idx.size)
        magnitudes = np.abs(target.param.data.reshape(-1)[active_idx])
        expected_dropped = set(active_idx[np.argsort(magnitudes)[:k]].tolist())

        set_gradients(masked, np.random.default_rng(0))
        before = target.mask.reshape(-1).copy()
        engine.mask_update(10)
        after = target.mask.reshape(-1)
        dropped = set(np.flatnonzero(before & ~after).tolist())
        assert dropped == expected_dropped

    def test_never_drops_to_empty_layer(self):
        model, masked, opt, engine = make_setup(sparsity=0.95)
        engine.drop_schedule = lambda step: 0.99  # pathological fraction
        set_gradients(masked, np.random.default_rng(0))
        engine.mask_update(10)
        for target in masked.targets:
            assert target.active_count >= 1


class TestGrowthSemantics:
    def test_grows_top_gradient_inactive(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        target = masked.targets[0]
        rng = np.random.default_rng(5)
        set_gradients(masked, rng)
        grad_flat = np.abs(target.param.grad.reshape(-1))
        before = target.mask.reshape(-1).copy()

        engine.mask_update(10)
        after = target.mask.reshape(-1)
        grown = np.flatnonzero(~before & after)
        dropped = np.flatnonzero(before & ~after)
        # Every grown weight's |grad| must be >= every non-grown candidate's
        # (candidates exclude just-dropped since allow_regrow=False).
        candidates = np.flatnonzero(~before)
        not_grown = np.setdiff1d(candidates, grown)
        if grown.size and not_grown.size:
            assert grad_flat[grown].min() >= grad_flat[not_grown].max() - 1e-12

    def test_grown_weights_start_at_zero(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        for target in masked.targets:
            target.param.data = (
                np.random.default_rng(1).standard_normal(target.param.shape).astype(np.float32)
                * target.mask
            )
        set_gradients(masked, np.random.default_rng(2))
        before = {t.name: t.mask.copy() for t in masked.targets}
        engine.mask_update(10)
        for target in masked.targets:
            grown = ~before[target.name] & target.mask
            assert np.all(target.param.data[grown] == 0.0)

    def test_momentum_reset_for_grown(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        # Populate momentum buffers with non-zero state everywhere.
        for target in masked.targets:
            opt.state_for(target.param)["momentum"] = np.ones(
                target.param.shape, dtype=np.float32
            )
        set_gradients(masked, np.random.default_rng(2))
        before = {t.name: t.mask.copy() for t in masked.targets}
        engine.mask_update(10)
        for target in masked.targets:
            grown = ~before[target.name] & target.mask
            momentum = opt.state_for(target.param)["momentum"]
            assert np.all(momentum[grown] == 0.0)

    def test_no_regrow_of_just_dropped(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        rng = np.random.default_rng(4)
        for target in masked.targets:
            target.param.data = (
                rng.standard_normal(target.param.shape).astype(np.float32) * target.mask
            )
            # Huge gradients on currently-active weights: if regrow were
            # allowed, dropped weights would be the top growth candidates.
            target.param.grad = np.where(
                target.mask, 100.0, 0.001
            ).astype(np.float32) * rng.standard_normal(target.param.shape).astype(np.float32)
        before = {t.name: t.mask.copy() for t in masked.targets}
        record = engine.mask_update(10)
        for target in masked.targets:
            dropped = before[target.name] & ~target.mask
            assert np.all(~(dropped & target.mask))


class TestScheduleIntegration:
    def test_on_backward_masks_gradients_on_regular_steps(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        set_gradients(masked, np.random.default_rng(0))
        skip = engine.on_backward(step=3)
        assert not skip
        for target in masked.targets:
            assert np.all(target.param.grad[~target.mask] == 0.0)

    def test_on_backward_updates_on_delta_t(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        set_gradients(masked, np.random.default_rng(0))
        skip = engine.on_backward(step=10)
        assert skip
        assert len(engine.history) == 1

    def test_topology_frozen_after_stop_step(self):
        model, masked, opt, engine = make_setup(
            sparsity=0.5, schedule=dataclasses.replace(SCHEDULE, stop_fraction=0.5)
        )
        set_gradients(masked, np.random.default_rng(0))
        assert not engine.on_backward(step=600)  # past stop: regular step
        assert len(engine.history) == 0

    def test_counter_advances_per_round(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        for step in (10, 20, 30):
            set_gradients(masked, np.random.default_rng(step))
            engine.mask_update(step)
        assert engine.coverage.rounds == 3

    def test_history_records(self):
        model, masked, opt, engine = make_setup(sparsity=0.5)
        set_gradients(masked, np.random.default_rng(0))
        record = engine.mask_update(10)
        assert record.step == 10
        assert 0.0 < record.exploration_rate <= 1.0
        assert record.global_density == pytest.approx(0.5, abs=0.05)


class TestDSTEEvsRigL:
    def test_c_zero_matches_rigl_choices(self):
        _, masked_a, _, engine_a = make_setup(sparsity=0.6, growth=DSTEEGrowth(c=0.0), seed=9)
        _, masked_b, _, engine_b = make_setup(sparsity=0.6, growth=GradientGrowth(), seed=9)
        rng_grad = np.random.default_rng(11)
        grads = [rng_grad.standard_normal(t.param.shape).astype(np.float32)
                 for t in masked_a.targets]
        for masked in (masked_a, masked_b):
            for target, grad in zip(masked.targets, grads):
                target.param.grad = grad.copy()
        engine_a.mask_update(10)
        engine_b.mask_update(10)
        for ta, tb in zip(masked_a.targets, masked_b.targets):
            assert np.array_equal(ta.mask, tb.mask)

    def test_positive_c_diverges_and_explores_more(self):
        _, masked_a, _, engine_a = make_setup(
            sparsity=0.8, growth=DSTEEGrowth(c=10.0, epsilon=0.5), seed=9
        )
        _, masked_b, _, engine_b = make_setup(sparsity=0.8, growth=GradientGrowth(), seed=9)
        rng = np.random.default_rng(13)
        for step in (10, 20, 30, 40, 50):
            grads = [rng.standard_normal(t.param.shape).astype(np.float32) * 0.01
                     for t in masked_a.targets]
            for masked in (masked_a, masked_b):
                for target, grad in zip(masked.targets, grads):
                    target.param.grad = grad.copy()
                for target in masked.targets:
                    target.param.data += 0.05 * rng.standard_normal(
                        target.param.shape
                    ).astype(np.float32)
                    target.param.data *= target.mask
            engine_a.mask_update(step)
            engine_b.mask_update(step)
        assert (
            engine_a.coverage.exploration_rate()
            >= engine_b.coverage.exploration_rate()
        )


class TestDeepRSignFlip:
    def test_sign_references_maintained(self):
        model, masked, opt, engine = make_setup(
            sparsity=0.5, growth=RandomGrowth(), drop_rule=SignFlipDrop()
        )
        assert set(engine._sign_refs) == {t.name for t in masked.targets}
        set_gradients(masked, np.random.default_rng(0))
        engine.mask_update(10)  # must not crash and keeps budget
        assert masked.total_active > 0


class TestFixedMaskController:
    def test_masks_gradients_and_never_updates(self):
        model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.7, rng=np.random.default_rng(0))
        controller = FixedMaskController(masked)
        snapshot = masked.masks_snapshot()
        set_gradients(masked, np.random.default_rng(0))
        for step in range(1, 50):
            assert controller.on_backward(step) is False
            controller.after_step(step)
        for name, mask in masked.masks_snapshot().items():
            assert np.array_equal(mask, snapshot[name])


class TestEngineProperty:
    @given(
        sparsity=st.floats(min_value=0.3, max_value=0.95),
        drop_fraction=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_budget_exact_under_random_configs(self, sparsity, drop_fraction, seed):
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
        budget = masked.total_active
        for step in (10, 20, 30):
            set_gradients(masked, rng)
            record = engine.mask_update(step)
            assert masked.total_active == budget
            assert record.total_dropped == record.total_grown
            for target in masked.targets:
                assert np.all(target.param.data[~target.mask] == 0.0)
