"""DQN training loop driven by the dynamic-sparse-training engine.

:class:`RLTrainer` is the RL counterpart of :class:`repro.train.Trainer`:
it steps an environment, fills a replay buffer, and performs Q-learning
gradient steps whose sparsity is controlled by the *same*
:class:`~repro.sparse.engine.SparsityController` machinery as supervised
training — on a mask-update step the optimizer update is replaced by one
drop-and-grow round (Algorithm 1), and otherwise gradients outside the
mask are zeroed before the step.  The trainer shares the supervised
trainer's loop core (:mod:`repro.train.loop`: the Algorithm-1 update,
callback dispatch and checkpoint-state path), its callback protocol
(:class:`repro.train.callbacks.Callback`, including
:class:`repro.train.checkpoint.CheckpointCallback`), the sparse execution
backends, and the optimizer binding for sparse coordinate updates.

Resume semantics match the supervised trainer: :meth:`state_dict` captures
*everything that evolves* — both Q-networks, optimizer moments, controller
state (masks, coverage, engine RNG, grad-EMA), the replay buffer (contents
+ sampling RNG), the environment (physics mid-episode + reset RNG), the
agent's action RNG, episode history and the partial episode's accumulators
— so a trainer built from the same configuration and restored via
:meth:`load_state_dict` continues **bitwise identically** to the
uninterrupted run, even when the checkpoint was taken mid-episode.  Two
counters matter: ``global_step`` counts environment steps (drives the
epsilon schedule and checkpoint cadence) and ``train_step`` counts gradient
steps (drives the ΔT mask-update schedule and target-network syncs).

Target-sync × ΔT interplay: a gradient step that is both a mask-update
step and a sync boundary first runs the drop-and-grow round, then copies
the *post-update* (newly masked, zero-initialized growth) weights into the
target network — the bootstrap never evaluates a topology the online
network no longer has.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.optim.lr_scheduler import LRScheduler
from repro.optim.sgd import Optimizer
from repro.rl.agent import DQNAgent, EpsilonSchedule
from repro.rl.envs import SOLVE_WINDOW, Env
from repro.rl.replay import ReplayBuffer
from repro.sparse.engine import SparsityController
from repro.train.callbacks import Callback
from repro.train.loop import TrainLoop, mask_stats, sparse_update

__all__ = ["EpisodeRecord", "RLTrainer", "rolling_returns"]


@dataclass
class EpisodeRecord:
    """One finished episode (the RL analogue of an ``EpochRecord``)."""

    episode: int
    global_step: int
    episode_return: float
    length: int
    epsilon: float
    train_loss: float | None
    sparsity: float | None
    exploration_rate: float | None

    @property
    def epoch(self) -> int:
        """Alias so epoch-cadence callbacks (checkpointing) work unchanged."""
        return self.episode


def rolling_returns(history: Sequence[EpisodeRecord], window: int = SOLVE_WINDOW) -> list[float]:
    """Rolling mean episode return over trailing ``window`` episodes."""
    returns = [record.episode_return for record in history]
    return [
        float(np.mean(returns[max(0, index + 1 - window) : index + 1]))
        for index in range(len(returns))
    ]


class RLTrainer(TrainLoop):
    """Step-based DQN trainer with DST controller hooks.

    Parameters
    ----------
    agent:
        The :class:`~repro.rl.agent.DQNAgent` (owns online/target networks).
    env:
        A :class:`~repro.rl.envs.Env`; episodes restart automatically.
    buffer:
        Replay storage; gradient steps begin once it holds
        ``warmup_steps`` transitions.
    optimizer:
        Optimizer over the online network's parameters.
    controller:
        Optional :class:`~repro.sparse.engine.SparsityController` for the
        online network (the target network tracks it through syncs).
    scheduler:
        Optional LR scheduler, stepped once per ``scheduler_every`` gradient
        steps (RL has no epochs to hang the paper's per-epoch schedule on).
    callbacks:
        :class:`~repro.train.callbacks.Callback` hooks; ``on_step_end``
        fires per environment step (with ``global_step``) and
        ``on_epoch_end`` per finished episode (with the
        :class:`EpisodeRecord`).
    epsilon_schedule:
        Maps ``global_step`` to the exploration rate.
    batch_size, train_every, warmup_steps:
        One gradient step on a ``batch_size`` replay sample every
        ``train_every`` environment steps, once ``warmup_steps``
        transitions are stored.
    target_sync_every:
        Target-network sync cadence in *gradient* steps.
    sparse_backend:
        As in the supervised trainer: ``"auto"``/``"csr"``/``"dense"``
        installs execution backends on the controller's masked layers and
        (non-dense) binds the optimizer for sparse coordinate updates.
    """

    # epsilon_schedule is a pure function of global_step (construction-time
    # config, no evolving state), so resume correctness does not depend on
    # checkpointing it.
    CHECKPOINT_EXEMPT = {"epsilon_schedule"}
    STATE_KEYS = (
        "global_step train_step model target_model optimizer scheduler controller agent"
        " buffer env observation episode history callbacks"
    ).split()
    record_type = EpisodeRecord

    def __init__(
        self,
        agent: DQNAgent,
        env: Env,
        buffer: ReplayBuffer,
        optimizer: Optimizer,
        controller: SparsityController | None = None,
        scheduler: LRScheduler | None = None,
        callbacks: Sequence[Callback] = (),
        epsilon_schedule: EpsilonSchedule | None = None,
        batch_size: int = 64,
        train_every: int = 1,
        warmup_steps: int = 500,
        target_sync_every: int = 200,
        scheduler_every: int = 1000,
        sparse_backend: str | None = None,
    ):
        self.agent = agent
        self.env = env
        self.buffer = buffer
        self.optimizer = optimizer
        self.controller = controller
        self.scheduler = scheduler
        self.callbacks = list(callbacks)
        self.epsilon_schedule = (
            epsilon_schedule if epsilon_schedule is not None else EpsilonSchedule()
        )
        self.batch_size = int(batch_size)
        self.train_every = max(1, int(train_every))
        self.warmup_steps = max(int(warmup_steps), int(batch_size))
        if self.warmup_steps > buffer.capacity:
            # len(buffer) saturates at capacity, so a warmup above it would
            # silently keep the >=warmup gate false forever: an entire run
            # of env steps with zero gradient steps.
            raise ValueError(
                f"warmup_steps ({self.warmup_steps}) exceeds the replay "
                f"buffer's capacity ({buffer.capacity}); training would "
                "never start"
            )
        self.target_sync_every = max(1, int(target_sync_every))
        self.scheduler_every = max(1, int(scheduler_every))
        self.sparse_backend = sparse_backend

        self.history: list[EpisodeRecord] = []
        self.global_step = 0  # environment steps
        self.train_step = 0  # gradient steps
        self.env_steps_per_sec = 0.0
        self.train_steps_per_sec = 0.0
        # Partial-episode accumulators (None between fit calls unless a
        # mid-episode checkpoint was restored).
        self._obs: np.ndarray | None = None
        self._episode_return = 0.0
        self._episode_length = 0
        self._episode_losses: list[float] = []

    # ------------------------------------------------------------------
    # training loop
    # ------------------------------------------------------------------
    def fit(self, total_steps: int) -> list[EpisodeRecord]:
        """Interact until ``total_steps`` *total* environment steps.

        On a restored trainer the loop continues from the checkpointed
        position (mid-episode included), so the same ``fit(total_steps)``
        call finishes the original budget.
        """
        self._start_fit()
        start = time.perf_counter()
        steps_at_start = self.global_step
        train_at_start = self.train_step

        if self._obs is None:
            self._obs = self.env.reset()
        while self.global_step < total_steps:
            self.global_step += 1
            epsilon = self.epsilon_schedule(self.global_step)
            action = self.agent.act(self._obs, epsilon)
            next_obs, reward, terminated, truncated = self.env.step(action)
            # Bootstrap through time-limit truncations: only true terminals
            # have zero continuation value.
            self.buffer.push(self._obs, action, reward, next_obs, terminated)
            self._obs = next_obs
            self._episode_return += reward
            self._episode_length += 1

            if len(self.buffer) >= self.warmup_steps and (
                self.global_step % self.train_every == 0
            ):
                self._train_on_batch()

            if terminated or truncated:
                self._finish_episode(epsilon)

            self._step_end(self.global_step)
            if self._should_stop():
                break

        elapsed = time.perf_counter() - start
        if elapsed > 0:
            self.env_steps_per_sec = (self.global_step - steps_at_start) / elapsed
            self.train_steps_per_sec = (self.train_step - train_at_start) / elapsed
        return self.history

    def _train_on_batch(self) -> None:
        batch = self.buffer.sample(self.batch_size)
        self.agent.online.zero_grad()
        if self.controller is not None:
            self.controller.before_backward(self.train_step + 1)
        loss = self.agent.td_loss(**batch)
        loss.backward()
        self.train_step += 1
        sparse_update(self.controller, self.optimizer, self.train_step)
        if self.scheduler is not None and self.train_step % self.scheduler_every == 0:
            self.scheduler.step()
        # Sync after the (possibly replaced-by-mask-update) step so the
        # target copies the post-update topology and weights.
        if self.train_step % self.target_sync_every == 0:
            self.agent.sync_target()
        self._episode_losses.append(loss.item())

    def _finish_episode(self, epsilon: float) -> None:
        sparsity, exploration_rate = mask_stats(self.controller)
        record = EpisodeRecord(
            episode=len(self.history),
            global_step=self.global_step,
            episode_return=float(self._episode_return),
            length=self._episode_length,
            epsilon=float(epsilon),
            train_loss=(
                float(np.mean(self._episode_losses)) if self._episode_losses else None
            ),
            sparsity=sparsity,
            exploration_rate=exploration_rate,
        )
        self._episode_return = 0.0
        self._episode_length = 0
        self._episode_losses = []
        # Start the next episode *before* the callbacks run, so an
        # episode-end checkpoint always captures a ready-to-act state (and
        # the reset's RNG draw lands on the same side of the checkpoint in
        # interrupted and uninterrupted runs).
        self._obs = self.env.reset()
        self._record(record)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def average_return(self, window: int = SOLVE_WINDOW) -> float | None:
        """Mean return of the trailing ``window`` episodes (None if none)."""
        if not self.history:
            return None
        returns = [record.episode_return for record in self.history[-window:]]
        return float(np.mean(returns))

    def solved_at(self, window: int = SOLVE_WINDOW) -> int | None:
        """First global step where the rolling return crosses the solve bar.

        Only *full* windows count: the solve criterion is the average over
        ``window`` episodes, so the first ``window - 1`` entries (partial
        averages, where one lucky early episode could cross the bar alone)
        are never eligible.
        """
        threshold = self.env.solve_threshold
        rolling = rolling_returns(self.history, window)
        for index, (record, average) in enumerate(zip(self.history, rolling)):
            if index + 1 < window:
                continue
            if average >= threshold:
                return record.global_step
        return None

    # ------------------------------------------------------------------
    # checkpointing: the loop's own entries (TrainLoop adds the rest)
    # ------------------------------------------------------------------
    def _components(self) -> dict:
        return {
            "model": self.agent.online,
            "target_model": self.agent.target,
            "optimizer": self.optimizer,
            "scheduler": self.scheduler,
            "controller": self.controller,
            "agent": self.agent,
            "buffer": self.buffer,
            "env": self.env,
        }

    def _loop_state(self) -> dict:
        return {
            "train_step": self.train_step,
            "observation": None if self._obs is None else np.asarray(self._obs).copy(),
            "episode": {
                "return": float(self._episode_return),
                "length": int(self._episode_length),
                "losses": np.asarray(self._episode_losses, dtype=np.float64),
            },
        }

    def _load_loop_state(self, state: dict) -> None:
        self.train_step = int(state["train_step"])
        observation = state.get("observation")
        self._obs = None if observation is None else np.asarray(observation, np.float32)
        episode = state["episode"]
        self._episode_return = float(episode["return"])
        self._episode_length = int(episode["length"])
        self._episode_losses = [float(value) for value in episode["losses"]]
