"""Sharded multi-seed runs and sweeps: parity with serial, crash isolation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.synthetic import cifar10_like
from repro.experiments.registry import SweepCell, enumerate_cells
from repro.experiments.runner import (
    CellOutcome,
    SweepReport,
    run_image_classification,
    run_multi_seed,
    run_sweep,
)
from repro.models import MLP
from repro.parallel import fork_available

RUN_KWARGS = dict(sparsity=0.9, epochs=1, batch_size=32, lr=0.05, delta_t=5)


@pytest.fixture(scope="module")
def data():
    return cifar10_like(n_train=192, n_test=96, image_size=8, seed=5)


def factory(seed):
    return MLP(3 * 8 * 8, (48,), 10, seed=seed)


class TestEnumerateCells:
    def test_deterministic_order(self):
        cells = enumerate_cells(["set", "dst_ee"], ["mlp"], ["cifar10"],
                                [0.9, 0.95], seeds=(0, 1))
        assert len(cells) == 8
        assert cells[0] == SweepCell("set", "mlp", "cifar10", 0.9, 0)
        assert cells == enumerate_cells(["set", "dst_ee"], ["mlp"], ["cifar10"],
                                        [0.9, 0.95], seeds=(0, 1))

    def test_unknown_method_fails_fast(self):
        with pytest.raises(ValueError, match="unknown method"):
            enumerate_cells(["not_a_method"], ["mlp"], ["cifar10"], [0.9])

    def test_root_seed_derivation(self):
        a = enumerate_cells(["set"], ["mlp"], ["cifar10"], [0.9],
                            seeds=(0, 1, 2), root_seed=7)
        b = enumerate_cells(["set"], ["mlp"], ["cifar10"], [0.9],
                            seeds=(0, 1, 2), root_seed=7)
        assert a == b
        seeds = [cell.seed for cell in a]
        assert len(set(seeds)) == 3  # independent streams, not 0/1/2
        assert seeds != [0, 1, 2]


@pytest.mark.skipif(not fork_available(), reason="no fork support")
class TestRunMultiSeedParallel:
    def test_matches_serial_exactly(self, data):
        serial = run_multi_seed(run_image_classification, "dst_ee", factory,
                                data, seeds=(0, 1), n_proc=1, **RUN_KWARGS)
        parallel = run_multi_seed(run_image_classification, "dst_ee", factory,
                                  data, seeds=(0, 1), n_proc=2, **RUN_KWARGS)
        assert serial[0] == parallel[0]  # mean
        assert serial[1] == parallel[1]  # std
        for sr, pr in zip(serial[2], parallel[2]):
            assert sr.final_accuracy == pr.final_accuracy
            assert sr.actual_sparsity == pr.actual_sparsity
            for name in sr.masks:
                np.testing.assert_array_equal(sr.masks[name], pr.masks[name])

    def test_nested_gradient_workers_fall_back_to_serial(self, data):
        # Seed sharding forks daemonic workers, which cannot start a
        # GradientWorkerPool; the trainer must fall back to in-process
        # gradients (identical results) instead of crashing.
        plain = run_multi_seed(run_image_classification, "dst_ee", factory,
                               data, seeds=(0, 1), n_proc=2, **RUN_KWARGS)
        nested = run_multi_seed(run_image_classification, "dst_ee", factory,
                                data, seeds=(0, 1), n_proc=2, n_workers=2,
                                **RUN_KWARGS)
        assert plain[0] == nested[0]
        assert [r.final_accuracy for r in plain[2]] == [
            r.final_accuracy for r in nested[2]
        ]

    def test_failed_seed_raises(self, data):
        def bad_factory(seed):
            raise RuntimeError("factory exploded")

        with pytest.raises(RuntimeError, match="factory exploded"):
            run_multi_seed(run_image_classification, "dst_ee", bad_factory,
                           data, seeds=(0, 1), n_proc=2, **RUN_KWARGS)


SWEEP_KWARGS = {k: v for k, v in RUN_KWARGS.items() if k != "sparsity"}


class TestRunSweep:
    def _run_cell(self, data, fail_seed=None):
        def build(seed):
            if fail_seed is not None and seed == fail_seed:
                raise RuntimeError(f"seed {seed} exploded")
            return factory(seed)

        models, datasets = {"mlp": build}, {"cifar10": data}

        def run_cell(cell, **kwargs):
            return run_image_classification(
                cell.method, models[cell.model], datasets[cell.dataset],
                sparsity=cell.sparsity, seed=cell.seed, **kwargs,
            )

        return run_cell

    def test_aggregation_matches_multi_seed(self, data):
        cells = enumerate_cells(["dst_ee"], ["mlp"], ["cifar10"], [0.9],
                                seeds=(0, 1))
        report = run_sweep(cells, self._run_cell(data), n_proc=1,
                           **SWEEP_KWARGS)
        mean, std, _ = run_multi_seed(run_image_classification, "dst_ee",
                                      factory, data, seeds=(0, 1), n_proc=1,
                                      **RUN_KWARGS)
        rows = report.aggregate()
        assert len(rows) == 1
        assert rows[0]["mean_accuracy"] == pytest.approx(mean)
        assert rows[0]["std_accuracy"] == pytest.approx(std)
        assert rows[0]["seeds_ok"] == 2 and rows[0]["seeds_failed"] == 0

    def test_admm_cell_is_a_named_failure(self, data):
        """The GNN-only ADMM baseline passes the grid builder and fails as its cell."""
        cells = enumerate_cells(["dst_ee", "admm"], ["mlp"], ["cifar10"], [0.9], seeds=(0,))
        report = run_sweep(cells, self._run_cell(data), n_proc=1, **SWEEP_KWARGS)
        assert [outcome.ok for outcome in report.outcomes] == [True, False]
        assert "'admm'" in report.failures[0].error
        assert "only run_gnn" in report.failures[0].error

    @pytest.mark.parametrize("n_proc", [1, 2])
    def test_failing_cell_does_not_kill_sweep(self, data, n_proc):
        if n_proc > 1 and not fork_available():
            pytest.skip("no fork support")
        cells = enumerate_cells(["dst_ee"], ["mlp"], ["cifar10"], [0.9],
                                seeds=(0, 1, 2))
        report = run_sweep(cells, self._run_cell(data, fail_seed=1),
                           n_proc=n_proc, **SWEEP_KWARGS)
        oks = [outcome.ok for outcome in report.outcomes]
        assert oks == [True, False, True]
        assert "seed 1 exploded" in report.failures[0].error
        row = report.aggregate()[0]
        assert row["seeds_ok"] == 2 and row["seeds_failed"] == 1
        assert row["mean_accuracy"] is not None

    def test_unknown_model_or_dataset_is_a_failed_cell(self, data):
        cells = [
            SweepCell("dst_ee", "nope_model", "cifar10", 0.9, 0),
            SweepCell("dst_ee", "mlp", "nope_data", 0.9, 0),
            SweepCell("dst_ee", "mlp", "cifar10", 0.9, 0),
        ]
        report = run_sweep(cells, self._run_cell(data), n_proc=1,
                           **SWEEP_KWARGS)
        assert [outcome.ok for outcome in report.outcomes] == [False, False, True]
        assert "nope_model" in report.outcomes[0].error
        assert "nope_data" in report.outcomes[1].error


class TestAggregate:
    def test_missing_score_is_skipped_not_nan(self):
        # An RL cell that finished no episode scores None; the row averages
        # the seeds that did score, exactly as run_multi_seed does, and a
        # row with no score at all reports None.
        cells = enumerate_cells(["dense", "dst_ee"], ["dqn"], ["cartpole"],
                                [0.9], seeds=(0, 1))
        scores = (None, None, None, 150.0)
        report = SweepReport([
            CellOutcome(cell, SimpleNamespace(final_accuracy=score))
            for cell, score in zip(cells, scores)
        ])
        unscored, scored = report.aggregate()
        assert unscored["mean_accuracy"] is None
        assert unscored["std_accuracy"] is None
        assert scored["mean_accuracy"] == 150.0
        assert scored["std_accuracy"] == 0.0
        assert scored["seeds_ok"] == 2 and scored["seeds_failed"] == 0
