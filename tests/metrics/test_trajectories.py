"""Weight trajectory recorder (Figure 1a/1b raw data)."""

import numpy as np
import pytest

from repro.metrics.trajectories import WeightTrajectoryRecorder
from repro.models import MLP
from repro.sparse import MaskedModel, TrainingSchedule


def make_masked(seed=0):
    model = MLP(in_features=10, hidden=(12,), num_classes=3, seed=seed)
    masked = MaskedModel(model, 0.6, rng=np.random.default_rng(seed))
    return model, masked


def set_gradients(masked, rng):
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


class TestRecorder:
    def test_records_points(self):
        model, masked = make_masked()
        layer = masked.targets[0].name
        recorder = WeightTrajectoryRecorder(masked, {layer: np.array([0, 5])})
        set_gradients(masked, np.random.default_rng(0))
        for step in (1, 2, 3):
            recorder.observe(step)
        assert len(recorder.trajectories) == 2
        for trajectory in recorder.trajectories:
            assert trajectory.steps.tolist() == [1, 2, 3]
            assert trajectory.values.shape == (3,)

    def test_active_state_tracked(self):
        model, masked = make_masked()
        target = masked.targets[0]
        flat_mask = target.mask.reshape(-1)
        inactive_idx = int(np.flatnonzero(~flat_mask)[0])
        recorder = WeightTrajectoryRecorder(
            masked, {target.name: np.array([inactive_idx])}
        )
        recorder.observe(1)
        flat_mask[inactive_idx] = True
        recorder.observe(2)
        trajectory = recorder.trajectories[0]
        assert trajectory.active_mask.tolist() == [False, True]
        assert trajectory.activation_step() == 2

    def test_never_active_returns_none(self):
        model, masked = make_masked()
        target = masked.targets[0]
        inactive_idx = int(np.flatnonzero(~target.mask.reshape(-1))[0])
        recorder = WeightTrajectoryRecorder(
            masked, {target.name: np.array([inactive_idx])}
        )
        recorder.observe(1)
        assert recorder.trajectories[0].activation_step() is None

    def test_unknown_layer_raises(self):
        model, masked = make_masked()
        with pytest.raises(KeyError):
            WeightTrajectoryRecorder(masked, {"bogus": np.array([0])})

    def test_out_of_range_index_raises(self):
        model, masked = make_masked()
        layer = masked.targets[0].name
        with pytest.raises(IndexError):
            WeightTrajectoryRecorder(masked, {layer: np.array([10**9])})


class TestSelectByGradient:
    def test_selects_extremes(self):
        model, masked = make_masked()
        set_gradients(masked, np.random.default_rng(1))
        target = masked.targets[0]
        recorder = WeightTrajectoryRecorder.select_by_gradient(
            masked, target.name, n_small=2, n_large=2
        )
        assert len(recorder.trajectories) == 4
        flat_grad = np.abs(target.param.grad.reshape(-1))
        inactive = np.flatnonzero(~target.mask.reshape(-1))
        small = [t.flat_index for t in recorder.trajectories[:2]]
        large = [t.flat_index for t in recorder.trajectories[2:]]
        assert max(flat_grad[small]) <= min(flat_grad[large])
        # All selections must be inactive coordinates.
        assert set(small + large) <= set(inactive.tolist())

    def test_requires_gradients(self):
        model, masked = make_masked()
        with pytest.raises(RuntimeError):
            WeightTrajectoryRecorder.select_by_gradient(
                masked, masked.targets[0].name
            )

    def test_figure1_story_end_to_end(self):
        """Grow the small-gradient weight by exploration; its magnitude can
        later exceed its value at selection time (the paper's red line)."""
        from repro.optim import SGD
        from repro.sparse import DSTEEGrowth, DynamicSparseEngine

        model, masked = make_masked()
        optimizer = SGD(model.parameters(), lr=0.5)
        engine = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=100.0, epsilon=0.1),
            schedule=TrainingSchedule(total_steps=1000, delta_t=10),
            optimizer=optimizer,
            rng=np.random.default_rng(2),
        )
        rng = np.random.default_rng(3)
        set_gradients(masked, rng)
        target = masked.targets[0]
        recorder = WeightTrajectoryRecorder.select_by_gradient(
            masked, target.name, n_small=3, n_large=3
        )
        recorder.observe(0)
        for step in (10, 20, 30, 40, 50):
            set_gradients(masked, rng)
            engine.mask_update(step)
            # emulate a few SGD steps of drift
            for t in masked.targets:
                t.param.data += 0.1 * rng.standard_normal(t.param.shape).astype(np.float32)
                t.param.data *= t.mask
            recorder.observe(step)
        activated = [t for t in recorder.trajectories if t.activation_step() is not None]
        # With c=100 exploration grows broadly: some tracked weight activates.
        assert activated
