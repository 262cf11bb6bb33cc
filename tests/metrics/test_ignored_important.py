"""IgnoredImportantAnalysis — the §I / Figure 1 quantification."""

import numpy as np
import pytest

from repro.metrics import IgnoredImportantAnalysis
from repro.models import MLP
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule


def make_engine(sparsity=0.8, c=1e-2, seed=0):
    model = MLP(in_features=10, hidden=(16,), num_classes=3, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=c),
        schedule=TrainingSchedule(total_steps=1000, delta_t=10, drop_fraction=0.3),
        rng=np.random.default_rng(seed + 1),
    )
    return model, masked, engine


def set_gradients(masked, rng, scale=0.1):
    for target in masked.targets:
        target.param.grad = (
            scale * rng.standard_normal(target.param.shape)
        ).astype(np.float32)


def drift_weights(masked, rng, scale=0.1):
    for target in masked.targets:
        target.param.data += scale * rng.standard_normal(
            target.param.shape
        ).astype(np.float32)
        target.param.data *= target.mask


class TestIgnoredImportantAnalysis:
    def test_requires_finalize(self):
        model, masked, engine = make_engine()
        analysis = IgnoredImportantAnalysis(masked)
        with pytest.raises(RuntimeError, match="finalize"):
            analysis.ignored_fraction_by_layer()

    def test_observe_runs_engine_update(self):
        model, masked, engine = make_engine()
        analysis = IgnoredImportantAnalysis(masked)
        set_gradients(masked, np.random.default_rng(0))
        analysis.observe_update(engine, 10)
        assert engine.coverage.rounds == 1

    def test_fractions_in_unit_interval(self):
        model, masked, engine = make_engine()
        # Low importance bar + strong drift so late-grown weights qualify.
        analysis = IgnoredImportantAnalysis(masked, important_quantile=0.05)
        rng = np.random.default_rng(1)
        for step in (10, 20, 30, 40, 50):
            set_gradients(masked, rng)
            analysis.observe_update(engine, step)
            drift_weights(masked, rng, scale=0.5)
        analysis.finalize()
        fractions = analysis.ignored_fraction_by_layer()
        assert fractions  # some layer resolved
        assert all(0.0 <= value <= 1.0 for value in fractions.values())

    def test_snapshot_excludes_grown_this_round(self):
        model, masked, engine = make_engine()
        analysis = IgnoredImportantAnalysis(masked)
        set_gradients(masked, np.random.default_rng(2))
        before_masks = {t.name: t.mask.copy() for t in masked.targets}
        analysis.observe_update(engine, 10)
        for target in masked.targets:
            snaps = analysis._snapshots[target.name]
            if not snaps:
                continue
            grown = (~before_masks[target.name] & target.mask).reshape(-1)
            # Weights grown this round must not count as "stayed inactive".
            assert not (snaps[-1].inactive & grown).any()

    def test_greedy_missed_weights_dominate_with_churn(self):
        """With random gradients each round (maximal rank churn), the greedy
        snapshot at round q cannot anticipate later growth: the ignored
        fraction should be high — the Figure 1 phenomenon."""
        model, masked, engine = make_engine(c=1.0)
        analysis = IgnoredImportantAnalysis(masked, important_quantile=0.25)
        rng = np.random.default_rng(4)
        for step in (10, 20, 30, 40, 50):
            set_gradients(masked, rng)
            analysis.observe_update(engine, step)
            drift_weights(masked, rng, scale=0.3)
        analysis.finalize()
        fractions = analysis.ignored_fraction_by_layer()
        assert fractions
        assert np.mean(list(fractions.values())) > 0.5
