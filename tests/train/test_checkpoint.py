"""Checkpoint format, atomicity, retention, and trainer state round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.nn.losses import cross_entropy
from repro.optim import SGD, CosineAnnealingLR
from repro.train import (
    Callback,
    CheckpointCallback,
    Trainer,
    latest_checkpoint,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.train.checkpoint import FORMAT_VERSION, resolve_resume_path


class _EpochCounter(Callback):
    """A stateful callback: its count is part of the checkpoint."""

    def __init__(self):
        self.epochs = 0

    def on_epoch_end(self, record) -> None:
        self.epochs += 1

    def state_dict(self) -> dict:
        return {"epochs": self.epochs}

    def load_state_dict(self, state: dict) -> None:
        self.epochs = int(state["epochs"])


def _make_trainer(tiny_data, tiny_mlp_factory, callbacks=(), seed=0):
    model = tiny_mlp_factory(seed)
    train_loader = DataLoader(
        tiny_data.train, batch_size=32, shuffle=True,
        rng=np.random.default_rng(seed + 1),
    )
    test_loader = DataLoader(tiny_data.test, batch_size=64)
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    scheduler = CosineAnnealingLR(optimizer, t_max=4)
    return Trainer(
        model, optimizer, cross_entropy, train_loader, test_loader,
        scheduler=scheduler, callbacks=list(callbacks),
    )


class TestFormat:
    def test_roundtrip_preserves_tree_and_arrays(self, tmp_path, rng):
        state = {
            "scalar": 3,
            "float": 0.1 + 0.2,
            "none": None,
            "flag": True,
            "text": "hello",
            "nested": {"arr": rng.normal(size=(3, 4)), "list": [1, [2.5, None]]},
            "mask": rng.random((5,)) > 0.5,
        }
        path = tmp_path / "state.npz"
        save_training_checkpoint(path, state)
        restored = load_training_checkpoint(path)
        assert restored["scalar"] == 3
        assert restored["float"] == state["float"]  # bitwise via JSON repr
        assert restored["none"] is None
        assert restored["flag"] is True
        assert restored["text"] == "hello"
        np.testing.assert_array_equal(restored["nested"]["arr"], state["nested"]["arr"])
        assert restored["nested"]["arr"].dtype == state["nested"]["arr"].dtype
        assert restored["nested"]["list"] == [1, [2.5, None]]
        np.testing.assert_array_equal(restored["mask"], state["mask"])
        assert restored["mask"].dtype == np.bool_

    def test_numpy_scalars_become_native(self, tmp_path):
        path = tmp_path / "state.npz"
        save_training_checkpoint(path, {"a": np.float64(1.5), "b": np.int64(7)})
        restored = load_training_checkpoint(path)
        assert restored == {"a": 1.5, "b": 7}

    def test_unknown_format_version_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "state.npz"
        monkeypatch.setattr(
            "repro.train.checkpoint.FORMAT_VERSION", FORMAT_VERSION + 1
        )
        save_training_checkpoint(path, {"x": 1})
        monkeypatch.undo()
        with pytest.raises(ValueError, match="format version"):
            load_training_checkpoint(path)

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            save_training_checkpoint(tmp_path / "state.npz", {"x": object()})

    def test_no_tmp_file_left_behind(self, tmp_path, rng):
        path = tmp_path / "state.npz"
        save_training_checkpoint(path, {"arr": rng.normal(size=(8,))})
        leftovers = [p for p in tmp_path.iterdir() if p.name != "state.npz"]
        assert leftovers == []

    def test_rng_bit_generator_state_roundtrip(self, tmp_path):
        generator = np.random.default_rng(123)
        generator.normal(size=100)  # advance
        path = tmp_path / "state.npz"
        save_training_checkpoint(path, {"rng": generator.bit_generator.state})
        expected = generator.normal(size=10)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = load_training_checkpoint(path)["rng"]
        np.testing.assert_array_equal(fresh.normal(size=10), expected)


class TestLatestCheckpoint:
    def test_missing_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None

    def test_picks_highest_step(self, tmp_path):
        for step in (3, 12, 7):
            save_training_checkpoint(tmp_path / f"ckpt-{step:010d}.npz", {"s": step})
        found = latest_checkpoint(tmp_path)
        assert found is not None and found.name == f"ckpt-{12:010d}.npz"

    def test_ignores_foreign_files(self, tmp_path):
        (tmp_path / "ckpt-garbage.npz").write_bytes(b"not a checkpoint")
        (tmp_path / "other.txt").write_text("x")
        assert latest_checkpoint(tmp_path) is None


class TestCheckpointCallback:
    def test_requires_a_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            CheckpointCallback(tmp_path, every_n_epochs=None, every_n_steps=None)

    def test_unbound_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not bound"):
            CheckpointCallback(tmp_path).save()

    def test_epoch_cadence(self, tmp_path, tiny_data, tiny_mlp_factory):
        callback = CheckpointCallback(tmp_path, every_n_epochs=2)
        trainer = _make_trainer(tiny_data, tiny_mlp_factory, callbacks=[callback])
        trainer.fit(4)
        steps_per_epoch = len(trainer.train_loader)
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert names == [
            f"ckpt-{2 * steps_per_epoch:010d}.npz",
            f"ckpt-{4 * steps_per_epoch:010d}.npz",
        ]

    def test_step_cadence_and_keep_last(self, tmp_path, tiny_data, tiny_mlp_factory):
        callback = CheckpointCallback(
            tmp_path, every_n_epochs=None, every_n_steps=2, keep_last=3
        )
        trainer = _make_trainer(tiny_data, tiny_mlp_factory, callbacks=[callback])
        trainer.fit(2)
        total_steps = 2 * len(trainer.train_loader)
        kept = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        expected = [
            f"ckpt-{step:010d}.npz"
            for step in range(2, total_steps + 1, 2)
        ][-3:]
        assert kept == expected
        assert callback.last_path is not None and callback.last_path.exists()


class TestTrainerStateDict:
    def test_epoch_boundary_roundtrip_bitwise(self, tiny_data, tiny_mlp_factory, tmp_path):
        reference = _make_trainer(tiny_data, tiny_mlp_factory)
        reference.fit(2)
        path = tmp_path / "mid.npz"
        save_training_checkpoint(path, reference.state_dict())
        reference.fit(4)

        resumed = _make_trainer(tiny_data, tiny_mlp_factory)
        resumed.load_state_dict(load_training_checkpoint(path))
        assert len(resumed.history) == 2
        resumed.fit(4)

        assert resumed.history.series("train_loss") == reference.history.series("train_loss")
        assert resumed.history.series("test_accuracy") == reference.history.series("test_accuracy")
        assert resumed.history.series("learning_rate") == reference.history.series("learning_rate")
        for p_ref, p_res in zip(reference.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(p_ref.data, p_res.data)

    def test_checkpoint_with_module_rng_map_still_resumes(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        """Checkpoints from releases whose modules held generators carry an
        ``rng.modules`` map; loading ignores it and resumes bitwise."""
        reference = _make_trainer(tiny_data, tiny_mlp_factory)
        reference.fit(2)
        state = reference.state_dict()
        assert "modules" not in state["rng"]
        state["rng"]["modules"] = {
            "body.2:rng": np.random.default_rng(7).bit_generator.state
        }
        path = tmp_path / "old.npz"
        save_training_checkpoint(path, state)
        reference.fit(3)

        resumed = _make_trainer(tiny_data, tiny_mlp_factory)
        resumed.load_state_dict(load_training_checkpoint(path))
        resumed.fit(3)
        assert resumed.history.series("train_loss") == reference.history.series("train_loss")
        for p_ref, p_res in zip(reference.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(p_ref.data, p_res.data)

    def test_mid_epoch_resume_with_shuffled_loader(self, tiny_data, tmp_path):
        """The data-order stream survives a restore inside epoch 1: the
        shuffled loader replays the interrupted epoch's order, and training
        continues from the step checkpoint bitwise."""
        from repro.models import MLP

        def build(callbacks=()):
            model = MLP(in_features=3 * 8 * 8, hidden=(32,), num_classes=4, seed=0)
            train_loader = DataLoader(
                tiny_data.train, batch_size=32, shuffle=True,
                rng=np.random.default_rng(1),
            )
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            return Trainer(
                model, optimizer, cross_entropy, train_loader,
                DataLoader(tiny_data.test, batch_size=64),
                scheduler=CosineAnnealingLR(optimizer, t_max=3),
                callbacks=list(callbacks),
            )

        callback = CheckpointCallback(
            tmp_path, every_n_epochs=None, every_n_steps=1
        )
        reference = build(callbacks=[callback])
        reference.fit(3)

        mid_epoch_step = len(reference.train_loader) + 2  # inside epoch 1
        resumed = build()
        resumed.load_state_dict(
            load_training_checkpoint(tmp_path / f"ckpt-{mid_epoch_step:010d}.npz")
        )
        assert resumed._pending_resume["epoch"] == 1
        resumed.fit(3)
        assert resumed.history.series("train_loss") == (
            reference.history.series("train_loss")
        )
        assert resumed.history.series("test_accuracy") == (
            reference.history.series("test_accuracy")
        )
        for p_ref, p_res in zip(
            reference.model.parameters(), resumed.model.parameters()
        ):
            np.testing.assert_array_equal(p_ref.data, p_res.data)


class TestReviewGuards:
    def test_missing_explicit_resume_file_raises(self, tiny_data, tiny_mlp_factory, tmp_path):
        assert resolve_resume_path(None) is None
        assert resolve_resume_path(tmp_path / "not-yet-a-dir") is None  # dir-to-be
        with pytest.raises(FileNotFoundError, match="ckpt-0000000012"):
            resolve_resume_path(tmp_path / "ckpt-0000000012.npz")

    def test_callback_mismatch_warns_instead_of_silently_dropping(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        reference = _make_trainer(
            tiny_data, tiny_mlp_factory, callbacks=[_EpochCounter()]
        )
        reference.fit(2)
        state = reference.state_dict()

        with pytest.warns(UserWarning, match="not restored"):
            _make_trainer(tiny_data, tiny_mlp_factory).load_state_dict(state)

        mismatched = _make_trainer(
            tiny_data, tiny_mlp_factory, callbacks=[Callback()]
        )
        with pytest.warns(UserWarning, match="not restored"):
            mismatched.load_state_dict(state)
