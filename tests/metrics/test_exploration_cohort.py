"""Figure-1 cohort tracker: grown weights' gradient vs later magnitude ranks."""

import numpy as np

from repro.metrics import GrownWeightCohortTracker
from repro.models import MLP
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule


def make_engine(c=5.0, sparsity=0.8, seed=0):
    model = MLP(in_features=10, hidden=(14,), num_classes=3, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=c, epsilon=0.5),
        schedule=TrainingSchedule(total_steps=1000, delta_t=10, drop_fraction=0.3),
        rng=np.random.default_rng(seed + 1),
    )
    return model, masked, engine


def set_gradients(masked, rng, scale=0.1):
    for target in masked.targets:
        target.param.grad = (
            scale * rng.standard_normal(target.param.shape)
        ).astype(np.float32)


class TestCohortTracker:
    def test_records_cohorts_after_two_rounds(self):
        model, masked, engine = make_engine()
        tracker = GrownWeightCohortTracker(masked)
        rng = np.random.default_rng(0)
        for step in (10, 20):
            set_gradients(masked, rng)
            tracker.observe_update(engine, step)
            # Simulate training between updates: active weights drift.
            for target in masked.targets:
                target.param.data += 0.1 * rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
                target.param.data *= target.mask
        assert len(tracker.records) > 0
        assert all(r.became_important is not None for r in tracker.records)

    def test_greedy_selected_flags_match_gradient_ranks(self):
        model, masked, engine = make_engine(c=0.0)  # pure greedy growth
        tracker = GrownWeightCohortTracker(masked)
        rng = np.random.default_rng(1)
        set_gradients(masked, rng)
        tracker.observe_update(engine, 10)
        # With c=0 the engine IS the greedy rule, so everything it grew must
        # be flagged as greedy-selected.
        for record in tracker._pending:
            assert record.greedy_selected.all()

    def test_exploration_grows_non_greedy_weights(self):
        model, masked, engine = make_engine(c=50.0)  # exploration dominates
        tracker = GrownWeightCohortTracker(masked)
        rng = np.random.default_rng(2)
        # Two rounds so the first cohort resolves.
        for step in (10, 20, 30):
            set_gradients(masked, rng, scale=0.01)
            tracker.observe_update(engine, step)
            for target in masked.targets:
                target.param.data += 0.05 * rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
                target.param.data *= target.mask
        missed_any = any(
            (~r.greedy_selected).any() for r in tracker.records + tracker._pending
        )
        assert missed_any

    def test_ignored_fraction_by_layer_keys(self):
        model, masked, engine = make_engine(c=10.0)
        tracker = GrownWeightCohortTracker(masked)
        rng = np.random.default_rng(3)
        for step in (10, 20, 30):
            set_gradients(masked, rng)
            tracker.observe_update(engine, step)
            for target in masked.targets:
                target.param.data += 0.1 * rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
                target.param.data *= target.mask
        fractions = tracker.ignored_important_fraction_by_layer()
        layer_names = {t.name for t in masked.targets}
        assert set(fractions) <= layer_names
        assert all(0.0 <= value <= 1.0 for value in fractions.values())

    def test_high_ignored_layer_count(self):
        model, masked, engine = make_engine(c=100.0)
        tracker = GrownWeightCohortTracker(masked)
        rng = np.random.default_rng(4)
        for step in (10, 20, 30, 40):
            set_gradients(masked, rng, scale=0.01)
            tracker.observe_update(engine, step)
            for target in masked.targets:
                target.param.data += 0.2 * rng.standard_normal(
                    target.param.shape
                ).astype(np.float32)
                target.param.data *= target.mask
        count = tracker.layers_with_high_ignored_fraction(threshold=0.5)
        assert count >= 0  # well-defined; exact value is stochastic
