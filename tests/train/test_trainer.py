"""Trainer: loop semantics, sparse hooks, history, callbacks."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader
from repro.models import MLP
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import DynamicSparseEngine, GradientGrowth, MaskedModel, TrainingSchedule
from repro.train import EarlyStopping, LambdaCallback, Trainer, evaluate_classifier


def build(tiny_data, seed=0, controller=None, lr=0.1, **trainer_kwargs):
    model = MLP(in_features=3 * 8 * 8, hidden=(48, 24), num_classes=4, seed=seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    train_loader = DataLoader(
        tiny_data.train, batch_size=32, shuffle=True, rng=np.random.default_rng(seed)
    )
    test_loader = DataLoader(tiny_data.test, batch_size=64)
    trainer = Trainer(
        model, optimizer, nn.cross_entropy, train_loader, test_loader,
        controller=controller, **trainer_kwargs,
    )
    return model, optimizer, trainer


class TestTraining:
    def test_loss_decreases(self, tiny_data):
        model, _, trainer = build(tiny_data)
        history = trainer.fit(5)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_learns_above_chance(self, tiny_data):
        model, _, trainer = build(tiny_data)
        history = trainer.fit(8)
        assert history.final_test_accuracy > 0.5  # chance = 0.25

    def test_history_structure(self, tiny_data):
        model, _, trainer = build(tiny_data)
        history = trainer.fit(2)
        assert len(history) == 2
        record = history.epochs[0]
        assert record.epoch == 0
        assert record.test_accuracy is not None
        assert record.learning_rate > 0
        assert record.sparsity is None  # no controller

    def test_eval_every_skips_epochs(self, tiny_data):
        model, _, trainer = build(tiny_data, eval_every=3)
        history = trainer.fit(4)
        evals = [r.test_accuracy is not None for r in history.epochs]
        assert evals == [False, False, True, True]  # every 3rd + final

    def test_scheduler_steps_per_epoch(self, tiny_data):
        model, optimizer, trainer = build(tiny_data)
        trainer.scheduler = CosineAnnealingLR(optimizer, t_max=4)
        initial_lr = optimizer.lr
        trainer.fit(4)
        assert optimizer.lr < initial_lr

    def test_global_step_counts_batches(self, tiny_data):
        model, _, trainer = build(tiny_data)
        trainer.fit(2)
        assert trainer.global_step == 2 * len(trainer.train_loader)

    def test_evaluate_classifier_range(self, tiny_data):
        model, _, trainer = build(tiny_data)
        acc = evaluate_classifier(model, trainer.test_loader)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_restores_training_mode(self, tiny_data):
        model, _, trainer = build(tiny_data)
        model.train()
        evaluate_classifier(model, trainer.test_loader)
        assert model.training


class TestSparseIntegration:
    def test_sparsity_maintained_through_training(self, tiny_data):
        model = MLP(in_features=3 * 8 * 8, hidden=(48, 24), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        loader = DataLoader(tiny_data.train, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(0))
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=5 * len(loader), delta_t=3),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )
        trainer = Trainer(model, optimizer, nn.cross_entropy, loader,
                          controller=engine)
        trainer.fit(5)
        assert masked.global_sparsity() == pytest.approx(0.8, abs=0.02)
        for target in masked.targets:
            assert np.all(target.param.data[~target.mask] == 0.0)

    def test_mask_updates_happened(self, tiny_data):
        model = MLP(in_features=3 * 8 * 8, hidden=(48, 24), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        loader = DataLoader(tiny_data.train, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(0))
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=4 * len(loader), delta_t=3),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )
        trainer = Trainer(model, optimizer, nn.cross_entropy, loader,
                          controller=engine)
        trainer.fit(4)
        assert len(engine.history) >= 2

    def test_history_records_sparsity_and_exploration(self, tiny_data):
        model = MLP(in_features=3 * 8 * 8, hidden=(48, 24), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.7, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        loader = DataLoader(tiny_data.train, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(0))
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=2 * len(loader), delta_t=3),
            optimizer=optimizer,
        )
        trainer = Trainer(model, optimizer, nn.cross_entropy, loader,
                          controller=engine)
        history = trainer.fit(2)
        record = history.epochs[-1]
        assert record.sparsity == pytest.approx(0.7, abs=0.02)
        assert 0.0 < record.exploration_rate <= 1.0


class TestCallbacks:
    def test_lambda_callback_called_per_epoch(self, tiny_data):
        seen = []
        model, _, trainer = build(
            tiny_data, callbacks=[LambdaCallback(lambda r: seen.append(r.epoch))]
        )
        trainer.fit(3)
        assert seen == [0, 1, 2]

    def test_early_stopping(self, tiny_data):
        stopper = EarlyStopping(patience=1)
        stopper.best = 2.0  # impossible to beat → stops after patience epochs
        model, _, trainer = build(tiny_data, callbacks=[stopper])
        history = trainer.fit(10)
        assert len(history) < 10


class TestHistory:
    def test_series_extraction(self, tiny_data):
        model, _, trainer = build(tiny_data)
        history = trainer.fit(3)
        losses = history.series("train_loss")
        assert len(losses) == 3
        assert all(isinstance(v, float) for v in losses)

    def test_best_accuracy(self, tiny_data):
        model, _, trainer = build(tiny_data)
        history = trainer.fit(4)
        accs = [r.test_accuracy for r in history.epochs if r.test_accuracy is not None]
        assert history.best_test_accuracy == max(accs)


class TestSparseBackend:
    def _masked_trainer(self, tiny_data, sparse_backend):
        model = MLP(in_features=3 * 8 * 8, hidden=(48, 24), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        engine = DynamicSparseEngine(
            masked,
            GradientGrowth(),
            schedule=TrainingSchedule(total_steps=200, delta_t=10),
            optimizer=optimizer,
            rng=np.random.default_rng(1),
        )
        train_loader = DataLoader(
            tiny_data.train, batch_size=32, shuffle=True,
            rng=np.random.default_rng(0),
        )
        trainer = Trainer(
            model, optimizer, nn.cross_entropy, train_loader,
            controller=engine, sparse_backend=sparse_backend,
        )
        return model, masked, trainer

    def test_csr_backend_trains_and_keeps_invariants(self, tiny_data):
        model, masked, trainer = self._masked_trainer(tiny_data, "csr")
        history = trainer.fit(3)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
        for target in masked.targets:
            assert np.all(target.param.data[~target.mask] == 0.0)
        assert not masked.per_step_apply_needed  # optimizer was bound
        assert history.epochs[0].steps_per_sec > 0

    def test_backend_modes_reach_similar_loss(self, tiny_data):
        _, _, dense_trainer = self._masked_trainer(tiny_data, "dense")
        dense_history = dense_trainer.fit(3)
        _, _, csr_trainer = self._masked_trainer(tiny_data, "csr")
        csr_history = csr_trainer.fit(3)
        assert csr_history.epochs[-1].train_loss == pytest.approx(
            dense_history.epochs[-1].train_loss, abs=0.2
        )
