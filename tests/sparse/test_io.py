"""Sparse checkpoint save/load round-trips."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import CoverageTracker, MaskedModel, TrainingSchedule
from repro.sparse.io import load_sparse_checkpoint, save_sparse_checkpoint


def make_masked(seed=0, sparsity=0.7):
    model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    return model, masked


class TestRoundTrip:
    def test_weights_and_masks_restored(self, tmp_path):
        model, masked = make_masked()
        path = tmp_path / "ckpt.npz"
        save_sparse_checkpoint(masked, path)

        fresh_model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=99)
        restored, coverage = load_sparse_checkpoint(fresh_model, path)
        assert coverage is None
        for original, loaded in zip(model.parameters(), fresh_model.parameters()):
            assert np.array_equal(original.data, loaded.data)
        for t_orig, t_new in zip(masked.targets, restored.targets):
            assert np.array_equal(t_orig.mask, t_new.mask)
        assert restored.sparsity == pytest.approx(masked.sparsity)

    def test_coverage_restored(self, tmp_path):
        model, masked = make_masked()
        tracker = CoverageTracker(masked)
        rng = np.random.default_rng(1)
        for _ in range(3):
            for target in masked.targets:
                flat = target.mask.reshape(-1)
                flat[:] = rng.random(flat.size) < 0.3
            tracker.update()
        path = tmp_path / "ckpt.npz"
        save_sparse_checkpoint(masked, path, coverage=tracker)

        fresh_model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=99)
        restored, coverage = load_sparse_checkpoint(fresh_model, path)
        assert coverage is not None
        assert coverage.rounds == 3
        for name in tracker.counters:
            assert np.array_equal(coverage.counters[name], tracker.counters[name])
            assert np.array_equal(coverage.ever_active[name], tracker.ever_active[name])
        assert coverage.exploration_rate() == pytest.approx(
            tracker.exploration_rate()
        )

    def test_masks_enforced_after_load(self, tmp_path):
        model, masked = make_masked()
        path = tmp_path / "ckpt.npz"
        save_sparse_checkpoint(masked, path)
        fresh_model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=99)
        restored, _ = load_sparse_checkpoint(fresh_model, path)
        for target in restored.targets:
            assert np.all(target.param.data[~target.mask] == 0.0)

    def test_resume_training_from_checkpoint(self, tmp_path):
        from repro.optim import SGD
        from repro.sparse import DSTEEGrowth, DynamicSparseEngine

        model, masked = make_masked()
        tracker = CoverageTracker(masked)
        path = tmp_path / "ckpt.npz"
        save_sparse_checkpoint(masked, path, coverage=tracker)

        fresh_model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=99)
        restored, coverage = load_sparse_checkpoint(fresh_model, path)
        optimizer = SGD(fresh_model.parameters(), lr=0.1)
        engine = DynamicSparseEngine(
            restored,
            DSTEEGrowth(c=1e-3),
            schedule=TrainingSchedule(total_steps=100, delta_t=10),
            optimizer=optimizer,
            rng=np.random.default_rng(0),
        )
        engine.coverage = coverage  # resume exploration state
        for target in restored.targets:
            target.param.grad = np.random.default_rng(2).standard_normal(
                target.param.shape
            ).astype(np.float32)
        record = engine.mask_update(10)
        assert record.total_grown == record.total_dropped


class TestFileHandleHygiene:
    def test_load_closes_the_npz_archive(self, tmp_path, monkeypatch):
        """The archive handle must be closed on return (leaks used to
        accumulate across sweep cells)."""
        model, masked = make_masked()
        path = tmp_path / "ckpt.npz"
        save_sparse_checkpoint(masked, path)

        opened = []
        real_load = np.load

        def tracking_load(*args, **kwargs):
            archive = real_load(*args, **kwargs)
            opened.append(archive)
            return archive

        monkeypatch.setattr(np, "load", tracking_load)
        fresh_model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=99)
        load_sparse_checkpoint(fresh_model, path)
        assert len(opened) == 1
        assert opened[0].zip is None  # NpzFile.close() marker
