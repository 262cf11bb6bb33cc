"""Algorithm-1 semantics verified through a real training loop.

Figure 2 of the paper illustrates the data flow of one layer: masked
weights, gradient computation, drop-and-grow at ΔT boundaries, counter
accumulation.  These tests run the actual Trainer and verify the same
trace-level behaviour.
"""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, make_image_classification
from repro.models import MLP
from repro.optim import SGD
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule
from repro.train import Trainer


@pytest.fixture(scope="module")
def data():
    return make_image_classification(
        n_classes=3, n_train=96, n_test=48, image_size=8, noise=0.7, seed=33,
    )


def build(data, delta_t=4, sparsity=0.8, epochs_steps=1000, seed=0):
    model = MLP(in_features=3 * 8 * 8, hidden=(32,), num_classes=3, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loader = DataLoader(data.train, batch_size=32, shuffle=True,
                        rng=np.random.default_rng(seed))
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-2),
        schedule=TrainingSchedule(total_steps=epochs_steps, delta_t=delta_t),
        optimizer=optimizer,
        rng=np.random.default_rng(seed + 1),
    )
    trainer = Trainer(model, optimizer, nn.cross_entropy, loader,
                      controller=engine)
    return model, masked, optimizer, engine, trainer


class TestAlgorithmTrace:
    def test_updates_at_delta_t_multiples(self, data):
        model, masked, optimizer, engine, trainer = build(data, delta_t=4)
        trainer.fit(4)
        steps = [record.step for record in engine.history]
        assert steps
        assert all(step % 4 == 0 for step in steps)

    def test_counter_rounds_match_updates(self, data):
        model, masked, optimizer, engine, trainer = build(data, delta_t=4)
        trainer.fit(4)
        assert engine.coverage.rounds == len(engine.history)

    def test_exploration_rate_monotone_over_rounds(self, data):
        model, masked, optimizer, engine, trainer = build(data, delta_t=3)
        trainer.fit(5)
        curve = [record.exploration_rate for record in engine.history]
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_weight_values_respect_masks_every_epoch(self, data):
        model, masked, optimizer, engine, trainer = build(data, delta_t=3)
        for _ in range(3):
            trainer.fit(1)
            for target in masked.targets:
                assert np.all(target.param.data[~target.mask] == 0.0)

    def test_drop_fraction_annealed(self, data):
        model, masked, optimizer, engine, trainer = build(
            data, delta_t=2, epochs_steps=12
        )
        trainer.fit(4)
        fractions = [record.drop_fraction for record in engine.history]
        assert fractions[0] > fractions[-1]  # cosine decay

    def test_momentum_zero_outside_mask(self, data):
        """Masked-gradient updates must keep momentum zero at inactive slots
        (except transiently at just-dropped positions)."""
        model, masked, optimizer, engine, trainer = build(data, delta_t=1000)
        trainer.fit(2)  # no mask updates in this window
        for target in masked.targets:
            state = optimizer.state.get(id(target.param))
            if state and "momentum" in state:
                assert np.allclose(state["momentum"][~target.mask], 0.0)
