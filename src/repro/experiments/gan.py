"""Sparse-GAN stressor: adversarial training under a shared density budget.

The budget API's hardest customer: *two* networks (a generator and a
discriminator, both plain MLPs over a synthetic 2-D Gaussian mixture) each
run their own sparsity controller, and a :class:`GanDensityBalancer` moves
non-zero capacity **between** their :class:`~repro.sparse.budget.DensityBudget`
objects during training — when the discriminator's hinge margin says it is
winning, the generator is granted density at the discriminator's expense
(and vice versa).  The combined non-zero count is conserved exactly; each
engine realizes its new allocations at its next ΔT mask update.

Everything is dependency-free: data is sampled from closed-form mixtures
(:data:`MIXTURES`), the networks are :class:`repro.models.mlp.MLP`
instances, and the loss is the hinge GAN objective built from existing
tensor ops.  :class:`GANTrainer` shares the loop core of
:class:`repro.rl.trainer.RLTrainer` (:mod:`repro.train.loop`):
``state_dict``/``load_state_dict`` capture everything that evolves (both
networks, both optimizers, both controllers, the balancer's margin EMA and
transfer ledger, the data/latent RNG streams, history, callbacks), so a
killed run resumed from a checkpoint continues **bitwise identically**.

Quality is scored by *mode coverage*: the fraction of mixture modes that
receive a non-trivial share of generated samples (the standard synthetic
2-D GAN health check) — surfaced as ``final_accuracy`` so the
workload-agnostic :func:`~repro.experiments.runner.run_multi_seed` and
:func:`~repro.experiments.runner.run_sweep` aggregate it unchanged.  A GAN
sweep cell is a :class:`~repro.experiments.registry.SweepCell` with
``model="gan"`` and the mixture name in the ``dataset`` slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.experiments.registry import GAN_METHODS, build_method
from repro.models.mlp import MLP
from repro.optim import Adam
from repro.sparse.budget import DensityBudget
from repro.train.callbacks import Callback
from repro.train.checkpoint import (
    CheckpointCallback,
    load_training_checkpoint,
    resolve_resume_path,
)
from repro.train.loop import TrainLoop, mask_stats, sparse_update

__all__ = [
    "MIXTURES",
    "GaussianMixture",
    "GanDensityBalancer",
    "GANTrainer",
    "GANRunResult",
    "run_gan",
]


# ----------------------------------------------------------------------
# synthetic data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GaussianMixture:
    """Closed-form 2-D mixture: equally weighted isotropic Gaussians."""

    name: str
    centers: tuple[tuple[float, float], ...]
    std: float

    @property
    def n_modes(self) -> int:
        return len(self.centers)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        centers = np.asarray(self.centers, dtype=np.float32)
        idx = rng.integers(0, len(centers), size=n)
        noise = rng.normal(0.0, self.std, size=(n, 2))
        return (centers[idx] + noise).astype(np.float32)

    def mode_coverage(
        self, samples: np.ndarray, min_share: float = 0.005
    ) -> tuple[int, float]:
        """(covered modes, high-quality sample fraction) for ``samples``.

        A sample is *high quality* if it lies within 3σ of its nearest
        mode; a mode is *covered* if it attracts at least ``min_share`` of
        all samples as high-quality hits.
        """
        centers = np.asarray(self.centers, dtype=np.float64)
        points = np.asarray(samples, dtype=np.float64)
        distances = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        nearest = np.argmin(distances, axis=1)
        good = distances[np.arange(len(points)), nearest] <= 3.0 * self.std
        threshold = max(1, int(round(min_share * len(points))))
        covered = sum(
            int(np.sum(good & (nearest == mode)) >= threshold)
            for mode in range(len(centers))
        )
        return covered, float(np.mean(good)) if len(points) else 0.0


def _ring(n: int, radius: float = 2.0) -> tuple[tuple[float, float], ...]:
    angles = [2.0 * np.pi * k / n for k in range(n)]
    return tuple((radius * float(np.cos(a)), radius * float(np.sin(a))) for a in angles)


MIXTURES: dict[str, GaussianMixture] = {
    "ring4": GaussianMixture("ring4", _ring(4), std=0.05),
    "ring8": GaussianMixture("ring8", _ring(8), std=0.05),
    "grid9": GaussianMixture(
        "grid9",
        tuple((float(x), float(y)) for x in (-2.0, 0.0, 2.0) for y in (-2.0, 0.0, 2.0)),
        std=0.05,
    ),
}


# ----------------------------------------------------------------------
# cross-network density balancing
# ----------------------------------------------------------------------
class GanDensityBalancer:
    """Move density between the G and D budgets from the hinge margin.

    Every ``delta_t`` steps the EMA of the discriminator margin
    (``mean D(real) − mean D(fake)``) is compared to a deadband: above
    ``margin_high`` the discriminator is winning, so up to ``max_shift`` of
    its current budget is rescaled away and granted to the generator;
    below ``margin_low`` the transfer runs the other way.  Transfers are
    exact in elements (both budgets ``rescale`` to integer totals) and the
    combined total never changes; the engines realize the new allocations
    at their next mask update.
    """

    def __init__(
        self,
        g_budget: DensityBudget,
        d_budget: DensityBudget,
        delta_t: int = 100,
        max_shift: float = 0.05,
        ema_beta: float = 0.9,
        margin_high: float = 1.5,
        margin_low: float = 0.5,
        stop_step: int | None = None,
    ):
        if not 0.0 < max_shift <= 1.0:
            raise ValueError(f"max_shift must be in (0, 1], got {max_shift}")
        if margin_low > margin_high:
            raise ValueError("margin_low must be <= margin_high")
        self.g_budget = g_budget
        self.d_budget = d_budget
        self.delta_t = max(1, int(delta_t))
        self.max_shift = float(max_shift)
        self.ema_beta = float(ema_beta)
        self.margin_high = float(margin_high)
        self.margin_low = float(margin_low)
        self.stop_step = stop_step
        self._margin_ema: float | None = None
        self.transfers: list[tuple[int, int]] = []  # (step, +toward G / −toward D)

    @property
    def combined_total(self) -> int:
        return self.g_budget.total + self.d_budget.total

    def observe(self, d_real_mean: float, d_fake_mean: float) -> None:
        margin = float(d_real_mean) - float(d_fake_mean)
        if self._margin_ema is None:
            self._margin_ema = margin
        else:
            self._margin_ema = self.ema_beta * self._margin_ema + (1.0 - self.ema_beta) * margin

    def maybe_rebalance(self, step: int) -> int:
        """At ΔT boundaries, shift budget toward the losing network.

        Returns the signed element count moved (positive toward the
        generator, zero off-boundary or inside the deadband).
        """
        if step <= 0 or step % self.delta_t != 0 or self._margin_ema is None:
            return 0
        if self.stop_step is not None and step >= self.stop_step:
            return 0
        if self._margin_ema > self.margin_high:
            donor, receiver, sign = self.d_budget, self.g_budget, +1
        elif self._margin_ema < self.margin_low:
            donor, receiver, sign = self.g_budget, self.d_budget, -1
        else:
            return 0
        floor = sum(donor.unit(name) for name in donor.names)
        moved = min(
            int(self.max_shift * donor.total),
            donor.total - floor,
            receiver.capacity - receiver.total,
        )
        if moved <= 0:
            return 0
        donor.rescale(donor.total - moved)
        receiver.rescale(receiver.total + moved)
        self.transfers.append((step, sign * moved))
        return sign * moved

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "margin_ema": self._margin_ema,
            "transfers": [[int(step), int(moved)] for step, moved in self.transfers],
        }

    def load_state_dict(self, state: dict) -> None:
        raw = state["margin_ema"]
        self._margin_ema = None if raw is None else float(raw)
        self.transfers = [(int(step), int(moved)) for step, moved in state["transfers"]]


# ----------------------------------------------------------------------
# trainer
# ----------------------------------------------------------------------
@dataclass
class GanStepRecord:
    """One logged training step (the GAN analogue of an ``EpochRecord``)."""

    step: int
    loss_d: float
    loss_g: float
    margin: float
    g_density: float | None
    d_density: float | None
    transferred: int

    @property
    def epoch(self) -> int:
        """Alias so epoch-cadence callbacks (checkpointing) work unchanged."""
        return self.step


class GANTrainer(TrainLoop):
    """Alternating hinge-GAN loop with per-network DST controllers.

    Each global step runs one discriminator update and one generator
    update; both controllers see the same step counter, so their ΔT
    schedules stay aligned with the balancer's.  The balancer (optional)
    runs *before* the two updates, so a transfer at step ``t`` is realized
    by the engines' mask updates at the same ``t``.
    """

    # Construction-time config (mixture geometry and the loss have no
    # evolving state); the balancer, RNGs and history ARE checkpointed.
    CHECKPOINT_EXEMPT = {"mixture"}
    STATE_KEYS = (
        "global_step generator discriminator g_optimizer d_optimizer g_controller"
        " d_controller balancer data_rng latent_rng last_loss_d last_loss_g history"
        " callbacks"
    ).split()
    record_type = GanStepRecord

    def __init__(
        self,
        generator: MLP,
        discriminator: MLP,
        mixture: GaussianMixture,
        g_optimizer,
        d_optimizer,
        g_controller=None,
        d_controller=None,
        balancer: GanDensityBalancer | None = None,
        callbacks: Sequence[Callback] = (),
        batch_size: int = 64,
        latent_dim: int = 8,
        log_every: int = 50,
        data_rng: np.random.Generator | None = None,
        latent_rng: np.random.Generator | None = None,
    ):
        self.generator = generator
        self.discriminator = discriminator
        self.mixture = mixture
        self.g_optimizer = g_optimizer
        self.d_optimizer = d_optimizer
        self.g_controller = g_controller
        self.d_controller = d_controller
        self.balancer = balancer
        self.callbacks = list(callbacks)
        self.batch_size = int(batch_size)
        self.latent_dim = int(latent_dim)
        self.log_every = max(1, int(log_every))
        self.data_rng = data_rng if data_rng is not None else np.random.default_rng()
        self.latent_rng = latent_rng if latent_rng is not None else np.random.default_rng()
        self.history: list[GanStepRecord] = []
        self.global_step = 0
        self.last_loss_d: float | None = None
        self.last_loss_g: float | None = None

    # ------------------------------------------------------------------
    def _latents(self, n: int) -> Tensor:
        z = self.latent_rng.standard_normal((n, self.latent_dim)).astype(np.float32)
        return Tensor(z)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` points from the generator with an external RNG."""
        z = rng.standard_normal((n, self.latent_dim)).astype(np.float32)
        return np.asarray(self.generator(Tensor(z)).data)

    # ------------------------------------------------------------------
    def fit(self, total_steps: int) -> list[GanStepRecord]:
        """Train until ``total_steps`` global steps (resume-aware)."""
        self._start_fit()
        while self.global_step < total_steps:
            self.global_step += 1
            step = self.global_step

            transferred = 0
            if self.balancer is not None:
                transferred = self.balancer.maybe_rebalance(step)

            # ---- discriminator update (hinge loss) ----
            real = Tensor(self.mixture.sample(self.batch_size, self.data_rng))
            fake_detached = self.generator(self._latents(self.batch_size)).detach()
            self.discriminator.zero_grad()
            if self.d_controller is not None:
                self.d_controller.before_backward(step)
            d_real = self.discriminator(real)
            d_fake = self.discriminator(fake_detached)
            loss_d = (1.0 - d_real).relu().mean() + (1.0 + d_fake).relu().mean()
            loss_d.backward()
            sparse_update(self.d_controller, self.d_optimizer, step)
            margin = float(np.mean(d_real.data)) - float(np.mean(d_fake.data))
            if self.balancer is not None:
                self.balancer.observe(
                    float(np.mean(d_real.data)), float(np.mean(d_fake.data))
                )

            # ---- generator update (non-saturating hinge) ----
            self.generator.zero_grad()
            self.discriminator.zero_grad()
            if self.g_controller is not None:
                self.g_controller.before_backward(step)
            fake = self.generator(self._latents(self.batch_size))
            loss_g = (-self.discriminator(fake)).mean()
            loss_g.backward()
            sparse_update(self.g_controller, self.g_optimizer, step)

            self.last_loss_d = loss_d.item()
            self.last_loss_g = loss_g.item()
            if step % self.log_every == 0 or transferred:
                self._record(
                    GanStepRecord(
                        step=step,
                        loss_d=self.last_loss_d,
                        loss_g=self.last_loss_g,
                        margin=margin,
                        g_density=_density(self.g_controller),
                        d_density=_density(self.d_controller),
                        transferred=transferred,
                    )
                )
            self._step_end(step)
        return self.history

    # ------------------------------------------------------------------
    # checkpointing: the loop's own entries (TrainLoop adds the rest)
    # ------------------------------------------------------------------
    def _components(self) -> dict:
        return {
            "generator": self.generator,
            "discriminator": self.discriminator,
            "g_optimizer": self.g_optimizer,
            "d_optimizer": self.d_optimizer,
            "g_controller": self.g_controller,
            "d_controller": self.d_controller,
            "balancer": self.balancer,
        }

    def _loop_state(self) -> dict:
        return {
            "data_rng": self.data_rng.bit_generator.state,
            "latent_rng": self.latent_rng.bit_generator.state,
            "last_loss_d": self.last_loss_d,
            "last_loss_g": self.last_loss_g,
        }

    def _load_loop_state(self, state: dict) -> None:
        self.data_rng.bit_generator.state = state["data_rng"]
        self.latent_rng.bit_generator.state = state["latent_rng"]
        self.last_loss_d = state["last_loss_d"]
        self.last_loss_g = state["last_loss_g"]


def _density(controller) -> float | None:
    sparsity, _ = mask_stats(controller)
    return None if sparsity is None else 1.0 - sparsity


# ----------------------------------------------------------------------
# run entry points
# ----------------------------------------------------------------------
@dataclass
class GANRunResult:
    """Outcome of one sparse-GAN training run."""

    method: str
    mixture: str
    sparsity: float
    seed: int
    total_steps: int
    modes_covered: int
    n_modes: int
    mode_coverage: float
    high_quality_fraction: float
    final_loss_d: float | None
    final_loss_g: float | None
    g_density: float | None
    d_density: float | None
    combined_budget: int | None
    transfers: list = field(repr=False, default_factory=list)
    seconds: float = 0.0
    history: list = field(repr=False, default_factory=list)
    # Populated only with ``keep_model=True`` (serial runs).
    generator: object = field(repr=False, default=None, compare=False)
    discriminator: object = field(repr=False, default=None, compare=False)

    @property
    def final_accuracy(self) -> float:
        """Sweep-aggregation score (``SweepReport`` reads this name)."""
        return self.mode_coverage


def run_gan(
    method: str,
    mixture: str = "ring8",
    *,
    sparsity: float = 0.9,
    total_steps: int = 2000,
    seed: int = 0,
    hidden: Sequence[int] = (64, 64),
    latent_dim: int = 8,
    batch_size: int = 64,
    lr: float = 1e-3,
    delta_t: int = 100,
    drop_fraction: float = 0.3,
    c: float = 1e-3,
    epsilon: float = 1.0,
    distribution: str = "erk",
    balance_delta_t: int | None = None,
    balance_max_shift: float = 0.05,
    n_eval_samples: int = 2000,
    log_every: int = 50,
    callbacks: Sequence[Callback] = (),
    checkpoint_dir=None,
    checkpoint_every_steps: int | None = 200,
    checkpoint_keep_last: int | None = None,
    resume_from=None,
    keep_model: bool = False,
) -> GANRunResult:
    """Train one sparse-GAN configuration and return its summary row.

    ``seed`` drives every stream of randomness (both networks' init, both
    initial masks, both engines' tie-breaking, data sampling, latent
    sampling, evaluation), so runs are exactly reproducible.  ``method``
    is one of :data:`~repro.experiments.registry.GAN_METHODS` and is
    applied to *both* networks; for non-dense methods the
    :class:`GanDensityBalancer` additionally moves density between the two
    budgets.  Checkpoint/resume semantics match the supervised and RL
    runners — a resumed run is bitwise identical to an uninterrupted one.
    """
    if method not in GAN_METHODS:
        raise ValueError(f"method {method!r} is not GAN-capable; known: {GAN_METHODS}")
    if mixture not in MIXTURES:
        raise ValueError(f"unknown mixture {mixture!r}; registered: {sorted(MIXTURES)}")
    start = time.time()
    spec = MIXTURES[mixture]
    hidden = tuple(int(width) for width in hidden)
    generator = MLP(latent_dim, hidden, 2, seed=seed)
    discriminator = MLP(2, hidden, 1, seed=seed + 1)
    g_optimizer = Adam(generator.parameters(), lr=lr)
    d_optimizer = Adam(discriminator.parameters(), lr=lr)

    g_setup = build_method(
        method,
        generator,
        g_optimizer,
        sparsity,
        total_steps,
        distribution=distribution,
        delta_t=delta_t,
        drop_fraction=drop_fraction,
        c=c,
        epsilon=epsilon,
        rng=np.random.default_rng(seed + 2),
    )
    d_setup = build_method(
        method,
        discriminator,
        d_optimizer,
        sparsity,
        total_steps,
        distribution=distribution,
        delta_t=delta_t,
        drop_fraction=drop_fraction,
        c=c,
        epsilon=epsilon,
        rng=np.random.default_rng(seed + 3),
    )

    balancer = None
    if g_setup.masked is not None and d_setup.masked is not None:
        balancer = GanDensityBalancer(
            g_setup.masked.budget,
            d_setup.masked.budget,
            delta_t=balance_delta_t if balance_delta_t is not None else delta_t,
            max_shift=balance_max_shift,
            # Freeze transfers alongside the engines' own topology freeze.
            stop_step=int(0.75 * total_steps),
        )

    all_callbacks: list[Callback] = list(callbacks)
    if checkpoint_dir is not None:
        all_callbacks.append(
            CheckpointCallback(
                checkpoint_dir,
                every_n_epochs=None,
                every_n_steps=checkpoint_every_steps,
                keep_last=checkpoint_keep_last,
            )
        )

    trainer = GANTrainer(
        generator,
        discriminator,
        spec,
        g_optimizer,
        d_optimizer,
        g_controller=g_setup.controller,
        d_controller=d_setup.controller,
        balancer=balancer,
        callbacks=all_callbacks,
        batch_size=batch_size,
        latent_dim=latent_dim,
        log_every=log_every,
        data_rng=np.random.default_rng(seed + 4),
        latent_rng=np.random.default_rng(seed + 5),
    )
    resume_path = resolve_resume_path(resume_from)
    if resume_path is not None:
        trainer.load_state_dict(load_training_checkpoint(resume_path))
    history = trainer.fit(total_steps)

    eval_rng = np.random.default_rng(seed + 6)
    samples = trainer.generate(n_eval_samples, eval_rng)
    covered, quality = spec.mode_coverage(samples)
    return GANRunResult(
        method=method,
        mixture=mixture,
        sparsity=sparsity,
        seed=seed,
        total_steps=trainer.global_step,
        modes_covered=covered,
        n_modes=spec.n_modes,
        mode_coverage=covered / spec.n_modes,
        high_quality_fraction=quality,
        final_loss_d=trainer.last_loss_d,
        final_loss_g=trainer.last_loss_g,
        g_density=(
            1.0 - g_setup.masked.global_sparsity() if g_setup.masked is not None else None
        ),
        d_density=(
            1.0 - d_setup.masked.global_sparsity() if d_setup.masked is not None else None
        ),
        combined_budget=balancer.combined_total if balancer is not None else None,
        transfers=list(balancer.transfers) if balancer is not None else [],
        seconds=time.time() - start,
        history=list(history),
        generator=generator if keep_model else None,
        discriminator=discriminator if keep_model else None,
    )
