"""Sparse-GAN stressor: balancer conservation, resume exactness, sweeps.

The acceptance bar: the GAN workload trains through the shared
``run_sweep``, its ΔT density transfers between generator and
discriminator are visible in history, the combined G+D budget is exactly
conserved, and kill-and-resume is bitwise identical.
"""

import numpy as np
import pytest

from repro.experiments.gan import (
    MIXTURES,
    GanDensityBalancer,
    GANTrainer,
    run_gan,
)
from repro.experiments.registry import SweepCell, build_method, enumerate_cells
from repro.experiments.runner import run_sweep
from repro.models import MLP
from repro.optim import Adam
from repro.train.checkpoint import list_checkpoints

FAST = dict(
    sparsity=0.8,
    total_steps=90,
    hidden=(12, 12),
    latent_dim=4,
    batch_size=16,
    delta_t=30,
    n_eval_samples=200,
)


class TestMixtures:
    def test_registered_mixtures_sample_near_centers(self):
        for mixture in MIXTURES.values():
            rng = np.random.default_rng(0)
            samples = mixture.sample(256, rng)
            assert samples.shape == (256, 2)
            centers = np.asarray(mixture.centers)
            distances = np.linalg.norm(
                samples[:, None, :] - centers[None, :, :], axis=-1
            ).min(axis=1)
            assert float(distances.mean()) < 5 * mixture.std

    def test_mode_coverage_full_and_empty(self):
        mixture = MIXTURES["ring4"]
        rng = np.random.default_rng(1)
        covered, quality = mixture.mode_coverage(mixture.sample(400, rng))
        assert covered == len(mixture.centers)
        assert quality > 0.9
        far = np.full((400, 2), 50.0)
        covered_far, quality_far = mixture.mode_coverage(far)
        assert covered_far == 0
        assert quality_far == 0.0


class TestBalancerConservation:
    def make_budgets(self):
        g = MLP(4, (12, 12), 2, seed=0)
        d = MLP(2, (12, 12), 1, seed=1)
        g_masked = build_method(
            "set", g, Adam(g.parameters(), lr=1e-3), 0.8, 100,
            delta_t=10, rng=np.random.default_rng(2),
        ).masked
        d_masked = build_method(
            "set", d, Adam(d.parameters(), lr=1e-3), 0.8, 100,
            delta_t=10, rng=np.random.default_rng(3),
        ).masked
        return g_masked.budget, d_masked.budget

    def test_transfer_toward_generator_conserves_combined_total(self):
        g_budget, d_budget = self.make_budgets()
        balancer = GanDensityBalancer(
            g_budget, d_budget, delta_t=10, max_shift=0.2,
            margin_high=0.0, margin_low=-1.0,
        )
        combined = balancer.combined_total
        balancer.observe(d_real_mean=2.0, d_fake_mean=-2.0)  # D winning
        moved = balancer.maybe_rebalance(10)
        assert moved > 0
        assert balancer.combined_total == combined
        assert balancer.transfers == [(10, moved)]

    def test_transfer_toward_discriminator(self):
        g_budget, d_budget = self.make_budgets()
        balancer = GanDensityBalancer(
            g_budget, d_budget, delta_t=10, max_shift=0.2,
            margin_high=10.0, margin_low=5.0,
        )
        combined = balancer.combined_total
        d_before = d_budget.total
        balancer.observe(d_real_mean=-2.0, d_fake_mean=2.0)  # G winning
        moved = balancer.maybe_rebalance(10)
        assert moved < 0
        assert d_budget.total == d_before - moved
        assert balancer.combined_total == combined

    def test_deadband_and_off_boundary_are_inert(self):
        g_budget, d_budget = self.make_budgets()
        balancer = GanDensityBalancer(
            g_budget, d_budget, delta_t=10, margin_high=1.5, margin_low=0.5,
        )
        balancer.observe(d_real_mean=1.0, d_fake_mean=0.0)  # margin 1.0: inside
        assert balancer.maybe_rebalance(10) == 0
        balancer.observe(d_real_mean=10.0, d_fake_mean=0.0)
        assert balancer.maybe_rebalance(7) == 0  # off-boundary
        assert balancer.transfers == []


class TestTransfersVisibleInHistory:
    def test_forced_transfers_appear_in_step_records(self):
        generator = MLP(4, (12, 12), 2, seed=0)
        discriminator = MLP(2, (12, 12), 1, seed=1)
        g_optimizer = Adam(generator.parameters(), lr=1e-3)
        d_optimizer = Adam(discriminator.parameters(), lr=1e-3)
        g_setup = build_method(
            "set", generator, g_optimizer, 0.8, 60,
            delta_t=20, rng=np.random.default_rng(2),
        )
        d_setup = build_method(
            "set", discriminator, d_optimizer, 0.8, 60,
            delta_t=20, rng=np.random.default_rng(3),
        )
        # A deadband below any reachable margin forces a D->G transfer at
        # every ΔT, so the history must show them.
        balancer = GanDensityBalancer(
            g_setup.masked.budget, d_setup.masked.budget,
            delta_t=20, max_shift=0.2,
            margin_high=-1000.0, margin_low=-2000.0,
            stop_step=45,  # engines stop at 0.75·60: no unrealizable transfers
        )
        combined = balancer.combined_total
        trainer = GANTrainer(
            generator, discriminator, MIXTURES["ring4"],
            g_optimizer, d_optimizer,
            g_controller=g_setup.controller,
            d_controller=d_setup.controller,
            balancer=balancer,
            batch_size=16, latent_dim=4, log_every=10,
            data_rng=np.random.default_rng(4),
            latent_rng=np.random.default_rng(5),
        )
        trainer.fit(60)
        assert balancer.transfers, "forced rebalances must be recorded"
        assert all(moved > 0 for _, moved in balancer.transfers)
        assert balancer.combined_total == combined
        transferred_steps = [r.step for r in trainer.history if r.transferred]
        assert transferred_steps, "ΔT transfers must be visible in history"
        assert all(step % 20 == 0 for step in transferred_steps)
        # The budgets moved: G gained exactly what D lost.
        assert g_setup.masked.budget.total > d_setup.masked.budget.total
        assert g_setup.masked.total_active == g_setup.masked.budget.total
        assert d_setup.masked.total_active == d_setup.masked.budget.total


class TestRunGan:
    def test_smoke_and_budget_conservation(self):
        result = run_gan("dst_ee", "ring4", seed=0, **FAST)
        assert result.n_modes == 4
        assert 0.0 <= result.mode_coverage <= 1.0
        assert result.final_loss_d is not None
        assert result.combined_budget is not None
        assert result.history
        # final_accuracy aliases mode coverage for SweepReport aggregation.
        assert result.final_accuracy == result.mode_coverage

    def test_dense_method_has_no_budget(self):
        result = run_gan("dense", "ring4", seed=0, **FAST)
        assert result.g_density is None
        assert result.combined_budget is None

    def test_unknown_method_and_mixture_raise(self):
        with pytest.raises(ValueError, match="not GAN-capable"):
            run_gan("gmp", "ring4", **FAST)
        with pytest.raises(ValueError, match="unknown mixture"):
            run_gan("set", "spiral", **FAST)

    def test_same_seed_is_deterministic(self):
        first = run_gan("set", "ring4", seed=5, **FAST)
        second = run_gan("set", "ring4", seed=5, **FAST)
        assert first.final_loss_d == second.final_loss_d
        assert first.final_loss_g == second.final_loss_g
        assert first.mode_coverage == second.mode_coverage


class TestGanResumeBitwise:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        config = dict(FAST, checkpoint_every_steps=30)
        full = run_gan("set", "ring4", seed=3, checkpoint_dir=tmp_path, **config)
        checkpoints = list_checkpoints(tmp_path)
        assert len(checkpoints) >= 2
        mid_step, mid_path = checkpoints[0]
        assert mid_step < FAST["total_steps"]
        resumed = run_gan(
            "set", "ring4", seed=3, resume_from=mid_path, **FAST
        )
        assert resumed.final_loss_d == full.final_loss_d
        assert resumed.final_loss_g == full.final_loss_g
        assert resumed.mode_coverage == full.mode_coverage
        assert resumed.g_density == full.g_density
        assert resumed.d_density == full.d_density
        assert resumed.transfers == full.transfers
        full_tail = [r for r in full.history if r.step > mid_step]
        resumed_tail = [r for r in resumed.history if r.step > mid_step]
        assert resumed_tail == full_tail


    def test_mismatched_callback_list_warns(self):
        from repro.train import EarlyStopping
        from repro.train.callbacks import LambdaCallback

        def trainer(callbacks):
            generator = MLP(4, (12, 12), 2, seed=0)
            discriminator = MLP(2, (12, 12), 1, seed=1)
            return GANTrainer(
                generator, discriminator, MIXTURES["ring4"],
                Adam(generator.parameters(), lr=1e-3),
                Adam(discriminator.parameters(), lr=1e-3),
                callbacks=callbacks, batch_size=16, latent_dim=4,
                data_rng=np.random.default_rng(4),
                latent_rng=np.random.default_rng(5),
            )

        state = trainer([EarlyStopping(patience=2)]).state_dict()
        with pytest.warns(UserWarning, match="not restored"):
            trainer([]).load_state_dict(state)
        with pytest.warns(UserWarning, match="not restored"):
            trainer([LambdaCallback(lambda record: None)]).load_state_dict(state)


def run_gan_cell(cell, **kwargs):
    """The sweep's cell runner: a GAN cell carries the mixture in ``dataset``."""
    return run_gan(cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs)


class TestGanSweep:
    def test_enumerate_validates(self):
        with pytest.raises(ValueError, match="unknown method"):
            enumerate_cells(("not_a_method",), ("gan",), ("ring4",), (0.8,), seeds=(0,))
        cells = enumerate_cells(("set", "dense"), ("gan",), ("ring4",), (0.8,), seeds=(0, 1))
        assert len(cells) == 4
        assert {cell.model for cell in cells} == {"gan"}
        assert {cell.dataset for cell in cells} == {"ring4"}

    def test_bad_cells_become_failed_outcomes(self):
        cells = [
            SweepCell("gmp", "gan", "ring4", 0.8, 0),
            SweepCell("set", "gan", "nope", 0.8, 0),
        ]
        report = run_sweep(cells, run_gan_cell, n_proc=1)
        assert [outcome.ok for outcome in report.outcomes] == [False, False]
        assert "not GAN-capable" in report.outcomes[0].error
        assert "unknown mixture 'nope'" in report.outcomes[1].error

    def test_sweep_with_checkpoint_dir_aggregates(self, tmp_path):
        cells = enumerate_cells(("set",), ("gan",), ("ring4",), (0.8,), seeds=(0,))
        report = run_sweep(
            cells,
            run_gan_cell,
            n_proc=1,
            checkpoint_dir=tmp_path,
            total_steps=60,
            hidden=(8, 8),
            latent_dim=4,
            batch_size=16,
            delta_t=20,
            n_eval_samples=100,
        )
        assert not report.failures
        rows = report.aggregate()
        assert len(rows) == 1
        assert rows[0]["method"] == "set"
