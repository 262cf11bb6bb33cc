"""Dense-to-sparse controllers: GMP (+GraNet regrow) and STR-proximal."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import (
    DensityBudget,
    GMPController,
    MaskedModel,
    STRController,
    TrainingSchedule,
    cubic_sparsity,
)


def dense_masked(seed=0):
    model = MLP(in_features=16, hidden=(24,), num_classes=4, seed=seed)
    return MaskedModel(model, 0.0, distribution="uniform", rng=np.random.default_rng(seed))


def final_budget(masked, final_sparsity):
    """The global budget a dense-to-sparse controller prunes down to."""
    return DensityBudget.from_global(masked.targets, 1.0 - final_sparsity)


# STR's threshold window: cadence 50, from 5% to 75% of training.
STR_WINDOW = dict(delta_t=50, t_start_fraction=0.05, t_end_fraction=0.75)


def fill_gradients(masked, rng):
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


class TestCubicSchedule:
    def test_endpoints(self):
        assert cubic_sparsity(0, 10, 100, 0.0, 0.9) == 0.0
        assert cubic_sparsity(10, 10, 100, 0.0, 0.9) == 0.0
        assert cubic_sparsity(100, 10, 100, 0.0, 0.9) == pytest.approx(0.9)
        assert cubic_sparsity(500, 10, 100, 0.0, 0.9) == pytest.approx(0.9)

    def test_monotone_increasing(self):
        values = [cubic_sparsity(t, 0, 100, 0.0, 0.9) for t in range(101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cubic_shape_fast_early(self):
        # The cubic schedule prunes faster early (more than linear at 50%).
        midpoint = cubic_sparsity(50, 0, 100, 0.0, 0.9)
        assert midpoint > 0.45


class TestGMP:
    def test_reaches_final_sparsity(self):
        masked = dense_masked()
        controller = GMPController(
            masked,
            TrainingSchedule(
                total_steps=100, delta_t=10, t_start_fraction=0.1, t_end_fraction=0.7
            ),
            final_budget(masked, 0.8),
        )
        rng = np.random.default_rng(0)
        for step in range(1, 101):
            fill_gradients(masked, rng)
            controller.on_backward(step)
            controller.after_step(step)
        assert masked.global_sparsity() == pytest.approx(0.8, abs=0.02)

    def test_sparsity_monotone_nondecreasing(self):
        masked = dense_masked()
        controller = GMPController(
            masked, TrainingSchedule(total_steps=100, delta_t=10), final_budget(masked, 0.9)
        )
        rng = np.random.default_rng(0)
        history = [masked.global_sparsity()]
        for step in range(1, 101):
            fill_gradients(masked, rng)
            controller.on_backward(step)
            history.append(masked.global_sparsity())
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_prunes_smallest_weights_globally(self):
        masked = dense_masked()
        rng = np.random.default_rng(1)
        for target in masked.targets:
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
        controller = GMPController(
            masked,
            TrainingSchedule(
                total_steps=10, delta_t=1, t_start_fraction=0.0, t_end_fraction=0.1
            ),
            final_budget(masked, 0.5),
        )
        fill_gradients(masked, rng)
        controller.on_backward(1)  # prunes straight to 0.5
        # Collect kept vs pruned magnitudes globally.
        kept, pruned = [], []
        for target in masked.targets:
            magnitude = np.abs(target.param.data)
            kept.append(magnitude[target.mask])
            pruned.append(magnitude[~target.mask])
        assert np.concatenate(kept).min() >= np.concatenate(pruned).max() - 1e-6

    def test_granet_regrow_keeps_target_sparsity(self):
        masked = dense_masked()
        controller = GMPController(
            masked,
            TrainingSchedule(total_steps=100, delta_t=10),
            final_budget(masked, 0.7),
            regrow_fraction=0.5,
            rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(2)
        for step in range(1, 101):
            fill_gradients(masked, rng)
            controller.on_backward(step)
        assert masked.global_sparsity() == pytest.approx(0.7, abs=0.03)

    def test_invalid_final_sparsity(self):
        masked = dense_masked()
        for final_sparsity in (0.0, 1.0):
            with pytest.raises(ValueError):
                GMPController(masked, TrainingSchedule(total_steps=10), final_budget(masked, final_sparsity))

    def test_history_recorded(self):
        masked = dense_masked()
        controller = GMPController(
            masked, TrainingSchedule(total_steps=50, delta_t=10), final_budget(masked, 0.6)
        )
        rng = np.random.default_rng(0)
        for step in range(1, 51):
            fill_gradients(masked, rng)
            controller.on_backward(step)
        assert len(controller.history) > 0
        steps = [s for s, _ in controller.history]
        assert steps == sorted(steps)


class TestSTR:
    def test_reaches_final_sparsity(self):
        masked = dense_masked()
        rng = np.random.default_rng(3)
        for target in masked.targets:
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
        controller = STRController(
            masked,
            TrainingSchedule(
                total_steps=100, delta_t=5, t_start_fraction=0.0, t_end_fraction=0.8
            ),
            final_budget(masked, 0.85),
        )
        for step in range(1, 101):
            # Simulate weight drift between shrinkage steps.
            for target in masked.targets:
                target.param.data += 0.01 * rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
            controller.after_step(step)
        controller.finalize()
        assert masked.global_sparsity() == pytest.approx(0.85, abs=0.05)

    def test_shrinkage_reduces_magnitudes(self):
        masked = dense_masked()
        rng = np.random.default_rng(4)
        for target in masked.targets:
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
        before = sum(float(np.abs(t.param.data).sum()) for t in masked.targets)
        controller = STRController(
            masked,
            TrainingSchedule(
                total_steps=10, delta_t=1, t_start_fraction=0.0, t_end_fraction=0.5
            ),
            final_budget(masked, 0.5),
        )
        controller.after_step(5)
        after = sum(float(np.abs(t.param.data).sum()) for t in masked.targets)
        assert after < before

    def test_gradients_stay_dense(self):
        masked = dense_masked()
        controller = STRController(
            masked,
            TrainingSchedule(total_steps=100, **STR_WINDOW),
            final_budget(masked, 0.8),
        )
        assert controller.on_backward(1) is False  # no skip, no masking

    def test_masks_track_nonzero_pattern(self):
        masked = dense_masked()
        rng = np.random.default_rng(5)
        for target in masked.targets:
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
        controller = STRController(
            masked,
            TrainingSchedule(
                total_steps=10, delta_t=1, t_start_fraction=0.0, t_end_fraction=0.5
            ),
            final_budget(masked, 0.6),
        )
        controller.after_step(5)
        for target in masked.targets:
            assert np.array_equal(target.mask, target.param.data != 0.0)

    def test_invalid_final_sparsity(self):
        masked = dense_masked()
        for final_sparsity in (0.0, 1.0):
            with pytest.raises(ValueError):
                STRController(masked, TrainingSchedule(total_steps=10, **STR_WINDOW), final_budget(masked, final_sparsity))
