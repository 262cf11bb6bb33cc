"""Mask analysis utilities."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import DynamicSparseEngine, MaskedModel, RandomGrowth, TrainingSchedule
from repro.sparse.analysis import (
    MaskDriftTracker,
    layer_density_table,
    mask_jaccard,
    mask_overlap,
)


class TestOverlapMetrics:
    def test_identical_masks(self):
        mask = np.random.default_rng(0).random((5, 5)) < 0.5
        assert mask_overlap(mask, mask) == 1.0
        assert mask_jaccard(mask, mask) == 1.0

    def test_disjoint_masks(self):
        a = np.array([True, True, False, False])
        b = np.array([False, False, True, True])
        assert mask_overlap(a, b) == 0.0
        assert mask_jaccard(a, b) == 0.0

    def test_partial_overlap(self):
        a = np.array([True, True, False, False])
        b = np.array([True, False, True, False])
        assert mask_overlap(a, b) == pytest.approx(0.5)
        assert mask_jaccard(a, b) == pytest.approx(1 / 3)

    def test_empty_mask_convention(self):
        empty = np.zeros(4, dtype=bool)
        assert mask_overlap(empty, empty) == 1.0
        assert mask_jaccard(empty, empty) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mask_overlap(np.ones(3, dtype=bool), np.ones(4, dtype=bool))

    def test_overlap_asymmetric(self):
        a = np.array([True, False, False, False])
        b = np.array([True, True, True, True])
        assert mask_overlap(a, b) == 1.0
        assert mask_overlap(b, a) == pytest.approx(0.25)


class TestDriftTracker:
    def make_engine(self, growth, seed=0):
        model = MLP(in_features=10, hidden=(14,), num_classes=3, seed=seed)
        masked = MaskedModel(model, 0.7, rng=np.random.default_rng(seed))
        engine = DynamicSparseEngine(
            masked,
            growth,
            schedule=TrainingSchedule(
                total_steps=1000,
                delta_t=10,
                drop_fraction=0.4,
                drop_schedule="constant",
            ),
            rng=np.random.default_rng(seed + 1),
        )
        return masked, engine

    def set_gradients(self, masked, rng):
        for target in masked.targets:
            target.param.grad = rng.standard_normal(
                target.param.shape
            ).astype(np.float32)

    def test_no_updates_no_drift(self):
        masked, engine = self.make_engine(RandomGrowth())
        tracker = MaskDriftTracker(masked)
        record = tracker.observe(0)
        assert record.overlap_with_initial == 1.0
        assert tracker.final_drift_from_initial == 0.0

    def test_drift_accumulates_with_random_growth(self):
        masked, engine = self.make_engine(RandomGrowth())
        tracker = MaskDriftTracker(masked)
        rng = np.random.default_rng(0)
        overlaps = []
        for step in (10, 20, 30, 40, 50):
            self.set_gradients(masked, rng)
            # random weights so magnitude drops are also churny
            for target in masked.targets:
                target.param.data = rng.standard_normal(
                    target.param.shape
                ).astype(np.float32) * target.mask
            engine.mask_update(step)
            overlaps.append(tracker.observe(len(overlaps) + 1).overlap_with_initial)
        assert overlaps[-1] < 1.0
        assert overlaps[-1] <= overlaps[0] + 1e-9
        assert tracker.final_drift_from_initial > 0.0

    def test_previous_overlap_higher_than_initial(self):
        masked, engine = self.make_engine(RandomGrowth())
        tracker = MaskDriftTracker(masked)
        rng = np.random.default_rng(1)
        last = None
        for step in (10, 20, 30, 40):
            self.set_gradients(masked, rng)
            for target in masked.targets:
                target.param.data = rng.standard_normal(
                    target.param.shape
                ).astype(np.float32) * target.mask
            engine.mask_update(step)
            last = tracker.observe(step // 10)
        # One round moves less than all rounds together.
        assert last.overlap_with_previous >= last.overlap_with_initial - 1e-9


class TestDensityTable:
    def test_rows_and_total(self):
        model = MLP(in_features=10, hidden=(14,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        rows = layer_density_table(masked)
        assert rows[-1]["layer"] == "TOTAL"
        assert rows[-1]["density"] == pytest.approx(0.2, abs=0.02)
        assert len(rows) == len(masked.targets) + 1
        assert sum(r["nnz"] for r in rows[:-1]) == rows[-1]["nnz"]
