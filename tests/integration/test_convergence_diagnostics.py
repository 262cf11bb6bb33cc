"""Proposition-1 diagnostics wired through real training (small scale)."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, make_image_classification
from repro.metrics import GradientNormTracker, fit_decay_rate, mask_incurred_error
from repro.models import MLP
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule


@pytest.fixture(scope="module")
def training_trace():
    """Train a sparse MLP and record the masked gradient norm per round."""
    data = make_image_classification(
        n_classes=4, n_train=256, n_test=64, image_size=8, noise=0.6, seed=55,
    )
    model = MLP(in_features=3 * 64, hidden=(48,), num_classes=4, seed=0)
    masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loader = DataLoader(data.train, batch_size=32, shuffle=True,
                        rng=np.random.default_rng(1))
    epochs = 10
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(
            total_steps=epochs * len(loader),
            delta_t=2,
            stop_fraction=1.0,
        ),
        optimizer=optimizer,
        rng=np.random.default_rng(2),
    )
    tracker = GradientNormTracker(masked)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)
    step = 0
    for _ in range(epochs):
        for inputs, targets in loader:
            step += 1
            model.zero_grad()
            nn.cross_entropy(model(inputs), targets).backward()
            if engine.update_schedule.is_update_step(step):
                tracker.observe(len(tracker.records) + 1)
                engine.mask_update(step)
            else:
                masked.mask_gradients()
                optimizer.step()
                masked.apply_masks()
        scheduler.step()
    return masked, tracker


class TestProposition1:
    def test_enough_rounds_observed(self, training_trace):
        masked, tracker = training_trace
        assert len(tracker.records) >= 20

    def test_gradient_norm_decays(self, training_trace):
        masked, tracker = training_trace
        rounds, norms = tracker.series
        slope, intercept = fit_decay_rate(rounds, norms)
        assert slope < 0.0

    def test_cumulative_mean_decreases(self, training_trace):
        masked, tracker = training_trace
        _, norms = tracker.series
        cumulative = np.cumsum(norms) / np.arange(1, len(norms) + 1)
        assert cumulative[-1] < cumulative[0]

    def test_mask_error_zero_during_sparse_training(self, training_trace):
        # Assumption 3's τ² is zero for the engine's W (masked weights stay 0).
        masked, tracker = training_trace
        assert mask_incurred_error(masked) == pytest.approx(0.0, abs=1e-10)
