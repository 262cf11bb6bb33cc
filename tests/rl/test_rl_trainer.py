"""RLTrainer loop: determinism, DST interplay, resume-exact checkpointing."""

import numpy as np
import pytest

from repro.models import MLP
from repro.optim import Adam
from repro.rl.agent import DQNAgent, EpsilonSchedule
from repro.rl.envs import make_env
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import EpisodeRecord, RLTrainer, rolling_returns
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule
from repro.sparse.kernels import install_sparse_backend
from repro.train.checkpoint import (
    CheckpointCallback,
    list_checkpoints,
    load_training_checkpoint,
    save_training_checkpoint,
)


def make_trainer(
    seed=0,
    sparsity=0.8,
    delta_t=5,
    target_sync_every=7,
    warmup_steps=32,
    total_updates=400,
    callbacks=(),
    dense=False,
):
    env = make_env("cartpole", seed=seed + 3)
    online = MLP(env.observation_size, (16, 16), env.n_actions, seed=seed)
    target = MLP(env.observation_size, (16, 16), env.n_actions, seed=seed)
    optimizer = Adam(online.parameters(), lr=1e-3)
    controller = None
    masked = None
    if not dense:
        masked = MaskedModel(online, sparsity, rng=np.random.default_rng(seed))
        controller = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=1e-3),
            schedule=TrainingSchedule(
                total_steps=total_updates,
                delta_t=delta_t,
                drop_fraction=0.3,
            ),
            optimizer=optimizer,
            rng=np.random.default_rng(seed + 10),
        )
    agent = DQNAgent(
        online, target, env.n_actions, rng=np.random.default_rng(seed + 1)
    )
    buffer = ReplayBuffer(512, env.observation_size, rng=np.random.default_rng(seed + 2))
    trainer = RLTrainer(
        agent,
        env,
        buffer,
        optimizer,
        controller=controller,
        callbacks=callbacks,
        epsilon_schedule=EpsilonSchedule(1.0, 0.1, 150),
        batch_size=16,
        warmup_steps=warmup_steps,
        target_sync_every=target_sync_every,
    )
    return trainer, masked


def history_signature(history):
    return [
        (r.episode, r.global_step, r.episode_return, r.length, r.epsilon, r.train_loss)
        for r in history
    ]


def params_of(trainer):
    return {k: v.copy() for k, v in trainer.agent.online.state_dict().items()}


class TestLoop:
    def test_same_seed_same_trajectory(self):
        a, _ = make_trainer(seed=4)
        b, _ = make_trainer(seed=4)
        a.fit(250)
        b.fit(250)
        assert history_signature(a.history) == history_signature(b.history)
        for key, value in params_of(a).items():
            assert np.array_equal(value, params_of(b)[key])

    def test_warmup_beyond_buffer_capacity_rejected(self):
        env = make_env("cartpole", seed=0)
        online = MLP(env.observation_size, (8,), env.n_actions, seed=0)
        target = MLP(env.observation_size, (8,), env.n_actions, seed=0)
        agent = DQNAgent(online, target, env.n_actions)
        buffer = ReplayBuffer(100, env.observation_size)
        with pytest.raises(ValueError, match="capacity"):
            RLTrainer(
                agent,
                env,
                buffer,
                Adam(online.parameters()),
                batch_size=16,
                warmup_steps=300,
            )

    def test_no_gradient_steps_before_warmup(self):
        trainer, _ = make_trainer(warmup_steps=100)
        trainer.fit(60)
        assert trainer.train_step == 0
        trainer.fit(120)
        assert trainer.train_step == 120 - 100 + 1

    def test_records_carry_sparsity_and_exploration(self):
        trainer, masked = make_trainer(seed=1)
        trainer.fit(200)
        assert trainer.history, "expected at least one finished episode"
        record = trainer.history[-1]
        assert record.sparsity == pytest.approx(masked.global_sparsity())
        assert record.exploration_rate is not None
        assert record.epoch == record.episode  # checkpoint-callback alias

    def test_train_every_thins_gradient_steps(self):
        trainer, _ = make_trainer(warmup_steps=32)
        trainer.train_every = 4
        trainer.fit(128)
        assert trainer.train_step == sum(
            1 for step in range(1, 129) if step % 4 == 0 and step >= 32
        )

    def test_dense_trainer_runs_without_controller(self):
        trainer, _ = make_trainer(dense=True)
        trainer.fit(120)
        assert trainer.train_step > 0
        assert trainer.history[-1].sparsity is None

    def test_csr_sparse_backend_trains_and_binds_optimizer(self):
        trainer, masked = make_trainer(seed=5, sparsity=0.9)
        trainer.sparse_backend = "csr"
        trainer.fit(120)
        assert trainer.train_step > 0
        # Non-dense backends bind the optimizer for sparse coordinate
        # updates, making the per-step mask re-apply unnecessary.
        assert not masked.per_step_apply_needed
        assert masked.global_sparsity() == pytest.approx(0.9, abs=0.02)
        for sparse in masked.targets:
            assert np.all(sparse.param.data[~sparse.mask] == 0.0)
        assert all(
            np.isfinite(r.train_loss) for r in trainer.history if r.train_loss is not None
        )

    def test_csr_backend_td_loss_matches_masked_dense(self):
        # The CSR path is an exact reformulation of masked-dense execution;
        # on one replay batch the TD loss must agree to float tolerance.
        losses = {}
        for backend in (None, "csr"):
            trainer, _ = make_trainer(seed=11, sparsity=0.9)
            install_sparse_backend(trainer.controller, trainer.optimizer, backend)
            rng = np.random.default_rng(0)
            batch = dict(
                observations=rng.standard_normal((16, 4)).astype(np.float32),
                actions=rng.integers(0, 2, 16),
                rewards=rng.standard_normal(16).astype(np.float32),
                next_observations=rng.standard_normal((16, 4)).astype(np.float32),
                dones=np.zeros(16, np.float32),
            )
            losses[backend] = trainer.agent.td_loss(**batch).item()
        assert losses["csr"] == pytest.approx(losses[None], rel=1e-5)


class TestTargetSyncMaskUpdateInterplay:
    def test_sync_on_mask_update_step_copies_post_update_topology(self):
        # delta_t == target_sync_every: every sync boundary is also a
        # drop-and-grow step.  The sync must copy the *post-update* weights
        # (new mask applied, grown weights zero-initialized).
        trainer, masked = make_trainer(delta_t=6, target_sync_every=6, warmup_steps=32)
        sync_steps = []
        original_sync = trainer.agent.sync_target

        def spying_sync():
            sync_steps.append(trainer.train_step)
            original_sync()
            # At sync time the target must agree with the online network
            # exactly, including zeros outside the just-updated mask.
            target_params = dict(trainer.agent.target.named_parameters())
            for sparse in masked.targets:
                copied = target_params[sparse.name].data
                assert np.array_equal(copied, sparse.param.data)
                assert np.all(copied[~sparse.mask] == 0.0)

        trainer.agent.sync_target = spying_sync
        trainer.fit(150)
        assert sync_steps, "expected at least one target sync"
        assert all(step % 6 == 0 for step in sync_steps)
        # Those sync steps were also mask-update steps.
        update_steps = {record.step for record in trainer.controller.history}
        assert update_steps.intersection(sync_steps)

    def test_target_frozen_between_syncs(self):
        trainer, _ = make_trainer(delta_t=5, target_sync_every=1000, warmup_steps=32)
        trainer.fit(80)  # well past warmup, no sync boundary reached
        frozen = {k: v.copy() for k, v in trainer.agent.target.state_dict().items()}
        trainer.fit(160)
        for key, value in trainer.agent.target.state_dict().items():
            assert np.array_equal(value, frozen[key])

    def test_mask_update_steps_skip_optimizer_but_count_for_sync(self):
        trainer, masked = make_trainer(delta_t=4, target_sync_every=8, warmup_steps=32)
        trainer.fit(120)
        update_steps = [record.step for record in trainer.controller.history]
        assert update_steps, "expected mask updates"
        assert all(step % 4 == 0 for step in update_steps)
        # Global density is preserved by every drop-and-grow round.
        for record in trainer.controller.history:
            assert record.total_dropped == record.total_grown


class TestCheckpointResume:
    def test_mid_run_restore_is_bitwise_exact(self, tmp_path):
        reference, _ = make_trainer(seed=9)
        reference.fit(300)

        victim, _ = make_trainer(seed=9)
        victim.fit(137)  # mid-episode with high probability
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, victim.state_dict())

        resumed, resumed_masked = make_trainer(seed=9)
        resumed.load_state_dict(load_training_checkpoint(path))
        assert resumed.global_step == 137
        resumed.fit(300)

        assert history_signature(resumed.history) == history_signature(reference.history)
        ref_params = params_of(reference)
        for key, value in params_of(resumed).items():
            assert np.array_equal(value, ref_params[key])
        for sparse in resumed_masked.targets:
            reference_mask = {
                t.name: t.mask for t in reference.controller.masked.targets
            }[sparse.name]
            assert np.array_equal(sparse.mask, reference_mask)
        # Engine bookkeeping resumed exactly too.
        assert (
            reference.controller.coverage.exploration_rate()
            == resumed.controller.coverage.exploration_rate()
        )

    def test_checkpoint_callback_episode_and_step_cadence(self, tmp_path):
        callback = CheckpointCallback(
            tmp_path, every_n_epochs=2, every_n_steps=50, keep_last=None
        )
        trainer, _ = make_trainer(seed=2, callbacks=(callback,))
        trainer.fit(150)
        steps = [step for step, _ in list_checkpoints(tmp_path)]
        assert 50 in steps and 100 in steps and 150 in steps
        assert len(steps) >= 3 + len(trainer.history) // 2 - 1

    def test_controller_presence_mismatch_raises(self):
        sparse_trainer, _ = make_trainer(seed=0)
        dense_trainer, _ = make_trainer(seed=0, dense=True)
        sparse_trainer.fit(40)
        with pytest.raises(ValueError, match="controller"):
            dense_trainer.load_state_dict(sparse_trainer.state_dict())

    def test_resume_restores_partial_episode_accumulators(self):
        trainer, _ = make_trainer(seed=6)
        trainer.fit(45)
        state = trainer.state_dict()
        assert state["episode"]["length"] == trainer._episode_length

        twin, _ = make_trainer(seed=6)
        twin.load_state_dict(state)
        assert twin._episode_return == trainer._episode_return
        assert twin._episode_length == trainer._episode_length
        assert np.array_equal(twin._obs, trainer._obs)


class TestReporting:
    def test_rolling_returns_window(self):
        history = [
            EpisodeRecord(i, i * 10, float(i), 10, 0.5, None, None, None)
            for i in range(5)
        ]
        assert rolling_returns(history, window=2) == [0.0, 0.5, 1.5, 2.5, 3.5]

    def test_average_return_and_solved_at(self):
        trainer, _ = make_trainer(seed=3)
        assert trainer.average_return() is None
        trainer.fit(150)
        expected = float(
            np.mean([r.episode_return for r in trainer.history[-20:]])
        )
        assert trainer.average_return() == pytest.approx(expected)
        # A toy run never reaches CartPole's solve bar.
        assert trainer.solved_at() is None
        trainer.env.solve_threshold = 0.0
        # Only full windows are eligible: the first window-1 rolling
        # entries are partial averages and never count as solved.
        assert trainer.solved_at(window=5) == trainer.history[4].global_step
        assert trainer.solved_at(window=len(trainer.history) + 1) is None

    def test_one_lucky_early_episode_does_not_solve(self):
        trainer, _ = make_trainer(seed=3)
        trainer.history = [
            EpisodeRecord(0, 10, 500.0, 10, 0.5, None, None, None),
            *[
                EpisodeRecord(i, 10 * (i + 1), 1.0, 10, 0.5, None, None, None)
                for i in range(1, 30)
            ],
        ]
        trainer.env.solve_threshold = 100.0
        # The partial-window averages at the start exceed the bar, but no
        # full 20-episode window does.
        assert rolling_returns(trainer.history)[0] == 500.0
        assert trainer.solved_at() is None
