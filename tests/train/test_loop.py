"""The contract every training loop shares: hook order, Algorithm 1, checkpoint state.

``Trainer``, ``RLTrainer`` and ``GANTrainer`` run the same Algorithm-1
update, callback dispatch and checkpoint-state path.  These tests pin what
each loop does today on tiny runs: the order in which callbacks fire, that
a mask-update step replaces the optimizer step, the checkpoint key layout,
and that a checkpoint disagreeing with the trainer on an optional part is
refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_image_classification
from repro.data.loader import DataLoader
from repro.experiments.gan import MIXTURES, GANTrainer
from repro.models import MLP
from repro.nn.losses import cross_entropy
from repro.optim import SGD, Adam, StepLR
from repro.rl.agent import DQNAgent
from repro.rl.envs import make_env
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import RLTrainer
from repro.train import Callback, Trainer


class _NoMasks:
    def global_sparsity(self) -> float:
        return 0.0


class FakeController:
    """Algorithm-1 hooks that log each call; ``on_backward`` skips chosen steps."""

    def __init__(self, log: list, tag: str = "", skip_steps=()):
        self.log = log
        self.tag = tag
        self.skip_steps = set(skip_steps)
        self.masked = _NoMasks()

    def before_backward(self, step: int) -> None:
        self.log.append((self.tag, "before_backward", step))

    def on_backward(self, step: int) -> bool:
        self.log.append((self.tag, "on_backward", step))
        return step in self.skip_steps

    def after_step(self, step: int) -> None:
        self.log.append((self.tag, "after_step", step))

    def on_epoch_end(self, epoch: int) -> None:
        pass

    def state_dict(self) -> dict:
        return {"type": "FakeController"}

    def load_state_dict(self, state: dict) -> None:
        pass


class FakeBalancer:
    def maybe_rebalance(self, step: int) -> int:
        return 0

    def observe(self, d_real_mean: float, d_fake_mean: float) -> None:
        pass

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


def _log_optimizer_steps(optimizer, log: list, tag: str = ""):
    original = optimizer.step

    def step():
        log.append((tag, "optimizer.step"))
        original()

    optimizer.step = step
    return optimizer


class Recorder(Callback):
    """Logs every callback event; asks to stop once ``stop_at`` is reached."""

    def __init__(self, stop_at: int | None = None):
        self.events: list = []
        self.stop_at = stop_at
        self.step = 0

    def bind(self, trainer) -> None:
        self.events.append("bind")

    def on_step_end(self, step: int) -> None:
        self.step = step
        self.events.append(("step", step))

    def on_epoch_end(self, record) -> None:
        self.events.append(("record", record.epoch))

    def should_stop(self) -> bool:
        self.events.append("should_stop")
        return self.stop_at is not None and self.step >= self.stop_at


# ----------------------------------------------------------------------
# tiny trainers (160 images -> 5 batches per epoch; CartPole; ring4 GAN)
# ----------------------------------------------------------------------
def make_trainer(callbacks=(), controller=None, scheduler=False, log=None):
    data = make_image_classification(
        n_classes=4, n_train=160, n_test=32, image_size=4, seed=3, name="tiny"
    )
    model = MLP(in_features=3 * 4 * 4, hidden=(8,), num_classes=4, seed=0)
    optimizer = SGD(model.parameters(), lr=0.1)
    if log is not None:
        _log_optimizer_steps(optimizer, log)
    loader = DataLoader(data.train, batch_size=32, shuffle=True, rng=np.random.default_rng(1))
    return Trainer(
        model,
        optimizer,
        cross_entropy,
        loader,
        scheduler=StepLR(optimizer, step_size=1) if scheduler else None,
        controller=controller,
        callbacks=callbacks,
    )


def make_rl_trainer(callbacks=(), controller=None, scheduler=False, log=None):
    env = make_env("cartpole", seed=3)
    online = MLP(env.observation_size, (8,), env.n_actions, seed=0)
    target = MLP(env.observation_size, (8,), env.n_actions, seed=0)
    optimizer = Adam(online.parameters(), lr=1e-3)
    if log is not None:
        _log_optimizer_steps(optimizer, log)
    agent = DQNAgent(online, target, env.n_actions, rng=np.random.default_rng(1))
    buffer = ReplayBuffer(64, env.observation_size, rng=np.random.default_rng(2))
    return RLTrainer(
        agent,
        env,
        buffer,
        optimizer,
        controller=controller,
        scheduler=StepLR(optimizer, step_size=1) if scheduler else None,
        callbacks=callbacks,
        batch_size=8,
        warmup_steps=16,
        target_sync_every=5,
    )


def make_gan_trainer(callbacks=(), g_controller=None, d_controller=None, balancer=None, log=None):
    generator = MLP(4, (8,), 2, seed=0)
    discriminator = MLP(2, (8,), 1, seed=1)
    g_optimizer = Adam(generator.parameters(), lr=1e-3)
    d_optimizer = Adam(discriminator.parameters(), lr=1e-3)
    if log is not None:
        _log_optimizer_steps(g_optimizer, log, "G")
        _log_optimizer_steps(d_optimizer, log, "D")
    return GANTrainer(
        generator,
        discriminator,
        MIXTURES["ring4"],
        g_optimizer,
        d_optimizer,
        g_controller=g_controller,
        d_controller=d_controller,
        balancer=balancer,
        callbacks=callbacks,
        batch_size=8,
        latent_dim=4,
        log_every=10,
        data_rng=np.random.default_rng(4),
        latent_rng=np.random.default_rng(5),
    )


# ----------------------------------------------------------------------
# hook order
# ----------------------------------------------------------------------
class TestHookOrder:
    def test_trainer_step_end_precedes_epoch_end_and_stop_is_per_epoch(self):
        recorder = Recorder()
        make_trainer([recorder]).fit(2)
        expected = ["bind"]
        for epoch in range(2):
            expected += [("step", 5 * epoch + batch) for batch in range(1, 6)]
            expected += [("record", epoch), "should_stop"]
        assert recorder.events == expected

    def test_trainer_stops_at_the_epoch_where_should_stop_flips(self):
        recorder = Recorder(stop_at=3)
        trainer = make_trainer([recorder])
        trainer.fit(4)
        assert len(trainer.history) == 1
        assert recorder.events == [
            "bind", *[("step", s) for s in range(1, 6)], ("record", 0), "should_stop"
        ]

    def test_rl_episode_record_precedes_step_end(self):
        recorder = Recorder(stop_at=70)
        trainer = make_rl_trainer([recorder])
        trainer.fit(200)
        assert trainer.global_step == 70
        ends = {record.global_step: record.episode for record in trainer.history}
        assert ends, "expected at least one finished episode"
        expected = ["bind"]
        for step in range(1, 71):
            if step in ends:
                expected.append(("record", ends[step]))
            expected += [("step", step), "should_stop"]
        assert recorder.events == expected

    def test_gan_log_record_precedes_step_end(self):
        recorder = Recorder(stop_at=25)
        trainer = make_gan_trainer([recorder])
        trainer.fit(100)
        assert trainer.global_step == 25
        assert [record.step for record in trainer.history] == [10, 20]
        expected = ["bind"]
        for step in range(1, 26):
            if step % 10 == 0:
                expected.append(("record", step))
            expected += [("step", step), "should_stop"]
        assert recorder.events == expected


# ----------------------------------------------------------------------
# Algorithm 1: a mask-update step replaces the optimizer step
# ----------------------------------------------------------------------
def _expected_updates(tags, steps, skip_steps):
    expected = []
    for step in steps:
        for tag in tags:
            expected += [(tag, "before_backward", step), (tag, "on_backward", step)]
            if step not in skip_steps:
                expected += [(tag, "optimizer.step"), (tag, "after_step", step)]
    return expected


SKIP = (2, 3, 7)


@pytest.mark.parametrize("kind", ["trainer", "rl", "gan"])
def test_mask_update_steps_skip_optimizer_and_after_step(kind):
    log: list = []
    if kind == "trainer":
        trainer = make_trainer(controller=FakeController(log, skip_steps=SKIP), log=log)
        trainer.fit(2)
        steps, tags = trainer.global_step, [""]
    elif kind == "rl":
        trainer = make_rl_trainer(controller=FakeController(log, skip_steps=SKIP), log=log)
        trainer.fit(40)
        steps, tags = trainer.train_step, [""]
    else:
        trainer = make_gan_trainer(
            g_controller=FakeController(log, "G", skip_steps=SKIP),
            d_controller=FakeController(log, "D", skip_steps=SKIP),
            log=log,
        )
        trainer.fit(10)
        steps, tags = trainer.global_step, ["D", "G"]
    assert steps >= 8
    assert log == _expected_updates(tags, range(1, steps + 1), SKIP)


# ----------------------------------------------------------------------
# checkpoint state
# ----------------------------------------------------------------------
STATE_KEYS = {
    "trainer": [
        "global_step", "model", "optimizer", "scheduler", "controller",
        "history", "rng", "callbacks", "epoch_progress",
    ],
    "rl": [
        "global_step", "train_step", "model", "target_model", "optimizer",
        "scheduler", "controller", "agent", "buffer", "env", "observation",
        "episode", "history", "callbacks",
    ],
    "gan": [
        "global_step", "generator", "discriminator", "g_optimizer",
        "d_optimizer", "g_controller", "d_controller", "balancer", "data_rng",
        "latent_rng", "last_loss_d", "last_loss_g", "history", "callbacks",
    ],
}
FACTORIES = {"trainer": make_trainer, "rl": make_rl_trainer, "gan": make_gan_trainer}


@pytest.mark.parametrize("kind", sorted(STATE_KEYS))
def test_state_dict_key_layout(kind):
    assert list(FACTORIES[kind]().state_dict()) == STATE_KEYS[kind]


def _with_part(kind, key):
    """The trainer of ``kind`` with its optional part ``key`` present."""
    if key == "scheduler":
        return FACTORIES[kind](scheduler=True)
    if key == "balancer":
        return make_gan_trainer(balancer=FakeBalancer())
    return FACTORIES[kind](**{key: FakeController([])})


@pytest.mark.parametrize(
    "kind,key",
    [
        ("trainer", "controller"),
        ("trainer", "scheduler"),
        ("rl", "controller"),
        ("rl", "scheduler"),
        ("gan", "g_controller"),
        ("gan", "d_controller"),
        ("gan", "balancer"),
    ],
)
def test_presence_mismatch_rejected(kind, key):
    saved_with = _with_part(kind, key).state_dict()
    with pytest.raises(ValueError, match=f"{key} presence"):
        FACTORIES[kind]().load_state_dict(saved_with)

    saved_without = FACTORIES[kind]().state_dict()
    with pytest.raises(ValueError, match=f"{key} presence"):
        _with_part(kind, key).load_state_dict(saved_without)
