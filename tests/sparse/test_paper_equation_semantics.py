"""Pin the paper's equations to the implementation, cell by cell.

These tests express Eq. 1, the drop rule, Algorithm 1's counter update and
the ERK formula as direct numeric statements, so a future refactor that
changes the math (rather than the code shape) fails loudly.
"""

import numpy as np
import pytest

from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    CoverageTracker,
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    TrainingSchedule,
    acquisition_score,
    erdos_renyi_kernel,
)
from repro.sparse.growers import LayerContext


class TestEquation1:
    def test_literal_formula(self):
        """S = |g| + c·ln(t)/(N+ε), evaluated element by element."""
        grad = np.array([0.3, -0.1, 0.0, 0.7])
        counter = np.array([2.0, 0.0, 5.0, 1.0])
        c, eps, t = 3e-3, 1.0, 250
        scores = acquisition_score(grad, counter, t, c, eps)
        for i in range(4):
            expected = abs(grad[i]) + c * np.log(t) / (counter[i] + eps)
            assert scores[i] == pytest.approx(expected, rel=1e-12)

    def test_grower_matches_standalone_formula(self):
        model = MLP(in_features=8, hidden=(10,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(0))
        target = masked.targets[0]
        rng = np.random.default_rng(1)
        grad = rng.standard_normal(target.param.shape)
        counter = rng.integers(0, 4, target.param.shape).astype(float)
        grower = DSTEEGrowth(c=2e-3, epsilon=0.5)
        ctx = LayerContext(step=100, rng=rng, dense_grad=grad, counter=counter)
        scores = grower.scores(target, ctx)
        assert np.allclose(
            scores, acquisition_score(grad, counter, 100, 2e-3, 0.5), atol=1e-12
        )


class TestPaperDropRule:
    def test_smallest_positive_and_largest_negative_dropped(self):
        """The paper's 'closest to zero: smallest positive weights and the
        largest negative weights' is exactly smallest |w|."""
        model = MLP(in_features=8, hidden=(10,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(0))
        target = masked.targets[0]
        # Hand-craft the layer: first 10 coordinates active with designed
        # values; the rest inactive (free slots for regrowth).
        flat_mask = target.mask.reshape(-1)
        flat_mask[:] = False
        flat_mask[:10] = True
        flat = target.param.data.reshape(-1)
        flat[:] = 0.0
        # The smallest positive (0.01) and the largest negative (-0.02,
        # i.e. closest to zero from below) must be dropped before ±1.
        flat[0], flat[1], flat[2], flat[3] = 0.01, -0.02, 1.0, -1.0
        flat[4:10] = np.linspace(2, 3, 6)
        # In-place mask edits must invalidate the cached index sets, then
        # sync the hand-crafted masks into the budget (the engine's source
        # of truth) so the update moves exactly k weights, no budget deltas.
        target.mark_mask_dirty()
        masked.budget.refresh_from_masks(masked)
        engine = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=0.0),
            schedule=TrainingSchedule(total_steps=100, delta_t=10),
            rng=np.random.default_rng(1),
        )
        engine.drop_schedule = lambda step: 2.0 / 10.0  # k = 2 of 10 active
        for layer in masked.targets:
            layer.param.grad = np.zeros(layer.param.shape, dtype=np.float32)
        engine.mask_update(10)
        flat_mask = target.mask.reshape(-1)
        assert not flat_mask[0]  # smallest positive gone
        assert not flat_mask[1]  # largest negative gone
        assert flat_mask[2] and flat_mask[3]


class TestAlgorithm1Counter:
    def test_counter_equals_sum_of_masks(self):
        """N after q rounds = M_init + Σ_q M_q (Algorithm 1's `N ← N + M`)."""
        model = MLP(in_features=8, hidden=(10,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.6, rng=np.random.default_rng(0))
        tracker = CoverageTracker(masked)
        target = masked.targets[0]
        expected = target.mask.astype(np.float64).copy()
        rng = np.random.default_rng(2)
        for _ in range(4):
            flat = target.mask.reshape(-1)
            flat[:] = rng.random(flat.size) < 0.4
            expected += target.mask
            tracker.update()
        assert np.array_equal(tracker.counter_for(target.name), expected)


class TestERKFormula:
    def test_raw_proportionality(self):
        """Densities ∝ sum(dims)/prod(dims) whenever no layer is capped."""
        shapes = [(64, 64, 3, 3), (128, 128, 3, 3)]
        densities = erdos_renyi_kernel(shapes, 0.1)
        raw = [np.sum(s) / np.prod(s) for s in shapes]
        assert densities[0] / densities[1] == pytest.approx(
            raw[0] / raw[1], rel=1e-9
        )

    def test_paper_convention_fc_layer(self):
        """For an FC layer ERK reduces to (n_in+n_out)/(n_in·n_out)."""
        shapes = [(100, 300), (200, 200)]
        densities = erdos_renyi_kernel(shapes, 0.05)
        raw = [(s[0] + s[1]) / (s[0] * s[1]) for s in shapes]
        assert densities[0] / densities[1] == pytest.approx(
            raw[0] / raw[1], rel=1e-9
        )


class TestFixedNonzeroBudget:
    def test_budget_invariant_through_full_training(self):
        """'using a fixed number of nonzero weights in each iteration'."""
        from repro import nn
        from repro.data import DataLoader, make_image_classification
        from repro.train import Trainer

        data = make_image_classification(3, 96, 48, image_size=8, noise=0.7, seed=1)
        model = MLP(in_features=3 * 64, hidden=(24,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        budget = masked.total_active
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        loader = DataLoader(data.train, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(0))
        engine = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=1e-3),
            schedule=TrainingSchedule(total_steps=3 * len(loader), delta_t=2),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )

        budgets = []
        original_after = engine.after_step

        def checked_after(step):
            original_after(step)
            budgets.append(masked.total_active)

        engine.after_step = checked_after
        Trainer(model, optimizer, nn.cross_entropy, loader,
                controller=engine).fit(3)
        assert budgets
        assert all(b == budget for b in budgets)
