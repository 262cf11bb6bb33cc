"""Acquisition scoring (Eq. 1) and coverage counters (Algorithm 1 semantics)."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import (
    CoverageTracker,
    MaskedModel,
    acquisition_score,
    exploitation_score,
    exploration_score,
)


class TestScoring:
    def test_exploitation_is_absolute_gradient(self):
        grad = np.array([-2.0, 0.5, 0.0])
        assert np.allclose(exploitation_score(grad), [2.0, 0.5, 0.0])

    def test_exploration_never_active_scores_highest(self):
        counter = np.array([0.0, 1.0, 5.0])
        scores = exploration_score(counter, step=100, c=1e-3)
        assert scores[0] > scores[1] > scores[2]

    def test_exploration_grows_with_log_t(self):
        counter = np.zeros(1)
        early = exploration_score(counter, step=10, c=1e-3)[0]
        late = exploration_score(counter, step=10000, c=1e-3)[0]
        assert late > early
        assert late / early == pytest.approx(np.log(10000) / np.log(10), rel=1e-6)

    def test_exploration_linear_in_c(self):
        counter = np.array([2.0])
        a = exploration_score(counter, step=50, c=1e-3)[0]
        b = exploration_score(counter, step=50, c=2e-3)[0]
        assert b == pytest.approx(2 * a, rel=1e-6)

    def test_epsilon_keeps_finite(self):
        scores = exploration_score(np.zeros(3), step=10, c=1.0, epsilon=1e-6)
        assert np.isfinite(scores).all()

    def test_acquisition_is_sum_of_terms(self):
        grad = np.array([0.1, -0.2])
        counter = np.array([0.0, 3.0])
        combined = acquisition_score(grad, counter, step=20, c=1e-2)
        expected = exploitation_score(grad) + exploration_score(counter, 20, 1e-2)
        assert np.allclose(combined, expected)

    def test_c_zero_recovers_rigl(self):
        grad = np.array([0.1, -0.2, 0.3])
        counter = np.array([0.0, 1.0, 9.0])
        scores = acquisition_score(grad, counter, step=100, c=0.0)
        assert np.allclose(scores, np.abs(grad))

    def test_step_below_one_raises(self):
        with pytest.raises(ValueError):
            exploration_score(np.zeros(2), step=0, c=1e-3)

    def test_negative_epsilon_raises(self):
        with pytest.raises(ValueError):
            exploration_score(np.zeros(2), step=5, c=1e-3, epsilon=0.0)

    def test_exploration_dominates_for_unexplored_with_large_c(self):
        # With large c, a never-active weight with zero gradient outranks an
        # explored weight with a big gradient — the Figure 1b behaviour.
        grad = np.array([0.0, 10.0])
        counter = np.array([0.0, 50.0])
        scores = acquisition_score(grad, counter, step=1000, c=5.0, epsilon=0.1)
        assert scores[0] > scores[1]


class TestCoverageTracker:
    def make(self, sparsity=0.5):
        model = MLP(in_features=10, hidden=(8,), num_classes=3, seed=0)
        masked = MaskedModel(model, sparsity, rng=np.random.default_rng(0))
        return masked, CoverageTracker(masked)

    def test_counter_initialized_to_mask(self):
        masked, tracker = self.make()
        for target in masked.targets:
            assert np.array_equal(
                tracker.counter_for(target.name), target.mask.astype(np.float32)
            )

    def test_update_adds_mask(self):
        masked, tracker = self.make()
        tracker.update()
        for target in masked.targets:
            expected = target.mask.astype(np.float32) * 2
            assert np.array_equal(tracker.counter_for(target.name), expected)
        assert tracker.rounds == 1

    def test_counter_tracks_mask_changes(self):
        masked, tracker = self.make()
        target = masked.targets[0]
        flat = target.mask.reshape(-1)
        was_active = int(np.flatnonzero(flat)[0])
        was_inactive = int(np.flatnonzero(~flat)[0])
        flat[was_active] = False
        flat[was_inactive] = True
        tracker.update()
        counter = tracker.counter_for(target.name).reshape(-1)
        assert counter[was_active] == 1.0   # initial round only
        assert counter[was_inactive] == 1.0  # newly active round only

    def test_exploration_rate_initial_is_density(self):
        masked, tracker = self.make(sparsity=0.5)
        assert tracker.exploration_rate() == pytest.approx(
            masked.global_density(), abs=1e-6
        )

    def test_exploration_rate_grows_with_new_activations(self):
        masked, tracker = self.make(sparsity=0.8)
        initial = tracker.exploration_rate()
        target = masked.targets[0]
        flat = target.mask.reshape(-1)
        flat[np.flatnonzero(~flat)[:5]] = True
        tracker.update()
        assert tracker.exploration_rate() > initial

    def test_exploration_rate_never_decreases(self):
        masked, tracker = self.make(sparsity=0.7)
        rng = np.random.default_rng(1)
        rates = [tracker.exploration_rate()]
        for _ in range(5):
            for target in masked.targets:
                flat = target.mask.reshape(-1)
                flat[:] = rng.random(flat.size) < 0.3
            tracker.update()
            rates.append(tracker.exploration_rate())
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_never_active_fraction_complement(self):
        masked, tracker = self.make()
        assert tracker.never_active_fraction() == pytest.approx(
            1.0 - tracker.exploration_rate()
        )

    def test_layer_exploration_rates_keys(self):
        masked, tracker = self.make()
        rates = tracker.layer_exploration_rates()
        assert set(rates) == {t.name for t in masked.targets}
