"""RL experiment cells: one (method, environment, sparsity, seed) DQN run.

The RL counterpart of :mod:`repro.experiments.runner`: wires together an
environment from :mod:`repro.rl.envs`, a DQN agent whose online Q-network
is sparsified by :func:`repro.experiments.registry.build_method`, and the
resume-exact :class:`~repro.rl.trainer.RLTrainer`, and returns an
:class:`RLRunResult` with the numbers the RL benches and tables report.

Fault tolerance mirrors the supervised layer: pass ``checkpoint_dir`` to
write resume-exact training checkpoints during the run and ``resume_from``
to continue a killed run bitwise-identically; at the grid level,
:func:`run_rl_sweep` records completed cells on disk and ``resume=True``
skips them / resumes partial ones, reusing the same per-cell record and
manifest machinery as the supervised sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.experiments.registry import RL_METHODS, SweepCell, build_method
from repro.experiments.runner import (
    SweepReport,
    _resolve_resume_path,
    run_cell_grid,
)
from repro.models.mlp import MLP
from repro.optim import Adam
from repro.parallel import run_sharded
from repro.rl.agent import DQNAgent, EpsilonSchedule
from repro.rl.envs import ENV_REGISTRY, SOLVE_WINDOW, make_env
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import RLTrainer, rolling_returns
from repro.train.callbacks import Callback
from repro.train.checkpoint import CheckpointCallback, load_training_checkpoint

__all__ = ["RLRunResult", "run_rl", "run_rl_multi_seed", "run_rl_sweep"]


@dataclass
class RLRunResult:
    """Outcome of one DQN training run."""

    method: str
    env: str
    sparsity: float
    seed: int
    total_steps: int
    train_steps: int
    episodes: int
    final_avg_return: float | None
    best_avg_return: float | None
    solved: bool
    solved_at_step: int | None
    solve_threshold: float
    seconds: float
    env_steps_per_sec: float
    train_steps_per_sec: float
    exploration_rate: float | None
    actual_sparsity: float | None
    history: list = field(repr=False, default_factory=list)
    masks: dict = field(repr=False, default_factory=dict)
    # Populated only with ``keep_model=True`` (serial runs): the trained
    # online Q-network and its MaskedModel wrapper, for export through
    # repro.serve.  Sweep workers never ship these over pipes.
    model: object = field(repr=False, default=None, compare=False)
    masked: object = field(repr=False, default=None, compare=False)

    @property
    def final_accuracy(self) -> float | None:
        """Sweep-aggregation score (``SweepReport`` reads this name).

        For RL cells the aggregated "accuracy" is the final rolling
        average episode return.
        """
        return self.final_avg_return


def run_rl(
    method: str,
    env_name: str = "cartpole",
    *,
    sparsity: float = 0.9,
    total_steps: int = 5000,
    seed: int = 0,
    hidden: Sequence[int] = (256, 256),
    batch_size: int = 64,
    lr: float = 1e-3,
    gamma: float = 0.99,
    buffer_capacity: int = 10_000,
    warmup_steps: int = 500,
    train_every: int = 1,
    target_sync_every: int = 200,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    epsilon_decay_fraction: float = 0.4,
    huber_delta: float = 1.0,
    delta_t: int = 100,
    drop_fraction: float = 0.3,
    c: float = 1e-3,
    epsilon: float = 1.0,
    distribution: str = "erk",
    sparse_backend: str | None = None,
    solve_window: int = SOLVE_WINDOW,
    callbacks: Sequence[Callback] = (),
    checkpoint_dir=None,
    checkpoint_every_epochs: int | None = 1,
    checkpoint_every_steps: int | None = None,
    checkpoint_keep_last: int | None = None,
    resume_from=None,
    keep_model: bool = False,
) -> RLRunResult:
    """Train one DQN configuration and return its summary row.

    ``seed`` drives every stream of randomness (network init, initial
    masks, engine tie-breaking, action exploration, replay sampling,
    environment resets), so runs are exactly reproducible.  ``method`` is
    one of :data:`~repro.experiments.registry.RL_METHODS`; for dynamic
    methods the drop-and-grow schedule runs over the expected number of
    *gradient* steps.  ``epsilon`` is DST-EE's exploration weight (the
    ε-greedy action schedule is ``epsilon_start``/``epsilon_end``), and an
    RL "epoch" for ``checkpoint_every_epochs`` is one episode.
    Checkpoint/resume semantics match
    :func:`repro.experiments.runner.run_image_classification` — a resumed
    run's trajectory, final masks, and episode history are bitwise
    identical to an uninterrupted run of the same configuration.
    """
    if method not in RL_METHODS:
        raise ValueError(f"method {method!r} is not RL-capable; known: {RL_METHODS}")
    start = time.time()
    env = make_env(env_name, seed=seed + 3)
    hidden = tuple(int(width) for width in hidden)
    online = MLP(env.observation_size, hidden, env.n_actions, seed=seed)
    target = MLP(env.observation_size, hidden, env.n_actions, seed=seed)
    optimizer = Adam(online.parameters(), lr=lr)

    warmup = max(int(warmup_steps), int(batch_size))
    n_updates = max(1, (int(total_steps) - warmup) // max(1, int(train_every)))
    setup = build_method(
        method,
        online,
        optimizer,
        sparsity,
        n_updates,
        distribution=distribution,
        delta_t=delta_t,
        drop_fraction=drop_fraction,
        c=c,
        epsilon=epsilon,
        rng=np.random.default_rng(seed),
    )

    agent = DQNAgent(
        online,
        target,
        env.n_actions,
        gamma=gamma,
        huber_delta=huber_delta,
        rng=np.random.default_rng(seed + 1),
    )
    buffer = ReplayBuffer(
        buffer_capacity,
        env.observation_size,
        rng=np.random.default_rng(seed + 2),
    )
    epsilon_schedule = EpsilonSchedule(
        epsilon_start,
        epsilon_end,
        max(1, int(total_steps * epsilon_decay_fraction)),
    )

    all_callbacks: list[Callback] = list(callbacks)
    if checkpoint_dir is not None:
        all_callbacks.append(
            CheckpointCallback(
                checkpoint_dir,
                every_n_epochs=checkpoint_every_epochs,
                every_n_steps=checkpoint_every_steps,
                keep_last=checkpoint_keep_last,
            )
        )

    trainer = RLTrainer(
        agent,
        env,
        buffer,
        optimizer,
        controller=setup.controller,
        callbacks=all_callbacks,
        epsilon_schedule=epsilon_schedule,
        batch_size=batch_size,
        train_every=train_every,
        warmup_steps=warmup,
        target_sync_every=target_sync_every,
        sparse_backend=sparse_backend,
    )
    resume_path = _resolve_resume_path(resume_from)
    if resume_path is not None:
        trainer.load_state_dict(load_training_checkpoint(resume_path))
    history = trainer.fit(total_steps)

    rolling = rolling_returns(history, solve_window)
    # Like solved_at, the best rolling average only considers full windows:
    # a single lucky early episode must not produce a headline stat above
    # the solve threshold on a run that never solved.
    full_windows = rolling[solve_window - 1 :]
    solved_at = trainer.solved_at(solve_window)
    coverage = getattr(setup.controller, "coverage", None)
    return RLRunResult(
        method=method,
        env=env_name,
        sparsity=sparsity,
        seed=seed,
        total_steps=trainer.global_step,
        train_steps=trainer.train_step,
        episodes=len(history),
        final_avg_return=trainer.average_return(solve_window),
        best_avg_return=max(full_windows) if full_windows else None,
        solved=solved_at is not None,
        solved_at_step=solved_at,
        solve_threshold=env.solve_threshold,
        seconds=time.time() - start,
        env_steps_per_sec=trainer.env_steps_per_sec,
        train_steps_per_sec=trainer.train_steps_per_sec,
        exploration_rate=coverage.exploration_rate() if coverage else None,
        actual_sparsity=(setup.masked.global_sparsity() if setup.masked is not None else None),
        history=list(history),
        masks=setup.masked.masks_snapshot() if setup.masked is not None else {},
        model=online if keep_model else None,
        masked=setup.masked if keep_model else None,
    )


def run_rl_multi_seed(
    method: str,
    env_name: str = "cartpole",
    seeds: tuple[int, ...] = (0, 1, 2),
    n_proc: int | None = None,
    **kwargs,
) -> tuple[float, float, list[RLRunResult]]:
    """Run several seeds; return (mean final return, std, all results).

    Seeds are independent runs, so they fan out across ``n_proc`` worker
    processes exactly as :func:`repro.experiments.runner.run_multi_seed`
    does — each seed recomputes exactly what the serial path computes, and
    a failed seed raises as it would serially.
    """
    jobs = [
        (lambda seed=seed: run_rl(method, env_name, seed=seed, **kwargs))
        for seed in seeds
    ]
    results = [
        shard.unwrap() for shard in run_sharded(jobs, n_proc=n_proc, fail_fast=True)
    ]
    scores = np.array(
        [r.final_avg_return if r.final_avg_return is not None else np.nan for r in results]
    )
    return float(np.nanmean(scores)), float(np.nanstd(scores)), results


def run_rl_sweep(
    cells: Sequence[SweepCell],
    n_proc: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **run_kwargs,
) -> SweepReport:
    """Run a grid of RL sweep cells across ``n_proc`` worker processes.

    Cells come from
    :func:`repro.experiments.registry.enumerate_rl_cells` (``dataset`` is
    the environment name).  Crash isolation, per-cell result records,
    ``manifest.json``, config-fingerprint invalidation, and ``resume=True``
    semantics are identical to :func:`repro.experiments.runner.run_sweep`
    — the two sweeps share the underlying machinery.
    """
    cells = list(cells)
    for cell in cells:
        if cell.method not in RL_METHODS:
            raise ValueError(f"method {cell.method!r} is not RL-capable; known: {RL_METHODS}")
        if cell.dataset not in ENV_REGISTRY:
            raise KeyError(f"no environment named {cell.dataset!r}")

    def run_cell(cell: SweepCell, cell_dir, resume_cell: bool, kwargs: dict):
        return run_rl(
            cell.method,
            cell.dataset,
            sparsity=cell.sparsity,
            seed=cell.seed,
            checkpoint_dir=cell_dir,
            resume_from=cell_dir if resume_cell else None,
            **kwargs,
        )

    return run_cell_grid(
        cells,
        run_cell,
        n_proc=n_proc,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        **run_kwargs,
    )
