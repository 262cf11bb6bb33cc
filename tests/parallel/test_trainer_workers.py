"""End-to-end determinism: Trainer(n_workers=2) matches the serial path."""

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import cifar10_like
from repro.models import MLP
from repro.nn.losses import cross_entropy
from repro.optim import SGD
from repro.parallel import fork_available
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule
from repro.train import Trainer

pytestmark = pytest.mark.skipif(not fork_available(), reason="no fork support")


def _train(n_workers: int, epochs: int = 3):
    data = cifar10_like(n_train=256, n_test=128, image_size=8, seed=5)
    model = MLP(3 * 8 * 8, (64, 32), 10, seed=0)
    masked = MaskedModel(model, 0.9, distribution="uniform",
                         rng=np.random.default_rng(1))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(total_steps=64, delta_t=5),
        optimizer=optimizer,
        rng=np.random.default_rng(2),
    )
    train_loader = DataLoader(data.train, batch_size=32, shuffle=True,
                              rng=np.random.default_rng(3))
    test_loader = DataLoader(data.test, batch_size=64)
    trainer = Trainer(model, optimizer, cross_entropy, train_loader,
                      test_loader, controller=engine, n_workers=n_workers)
    history = trainer.fit(epochs)
    params = [p.data.copy() for p in model.parameters()]
    return history, masked.masks_snapshot(), params


class TestTrainerWorkers:
    def test_trajectories_masks_and_params_match_serial(self):
        serial_hist, serial_masks, serial_params = _train(0)
        worker_hist, worker_masks, worker_params = _train(2)

        # Same accuracy trajectory (argmax decisions are fp-robust)...
        assert serial_hist.series("test_accuracy") == worker_hist.series("test_accuracy")
        assert serial_hist.series("train_accuracy") == pytest.approx(
            worker_hist.series("train_accuracy")
        )
        assert serial_hist.series("train_loss") == pytest.approx(
            worker_hist.series("train_loss"), rel=1e-5
        )
        # ...identical drop/grow decisions (the averaged gradient drives the
        # same DST choices the full-batch gradient does)...
        for name in serial_masks:
            np.testing.assert_array_equal(serial_masks[name], worker_masks[name])
        # ...and weights equal to float32 accumulation error.
        for sp, wp in zip(serial_params, worker_params):
            np.testing.assert_allclose(sp, wp, atol=1e-5)

    def test_parameters_private_after_fit(self):
        _, _, params = _train(2, epochs=1)
        assert all(p.base is None for p in params)
