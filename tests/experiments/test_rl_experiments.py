"""RL experiment layer: run_rl cells, parallel seeds, sweeps, and the CLI."""

import numpy as np
import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.registry import RL_METHODS, SweepCell, enumerate_cells
from repro.experiments.rl import run_rl
from repro.experiments.runner import run_multi_seed, run_sweep
from repro.parallel import fork_available

TINY = dict(
    sparsity=0.8,
    total_steps=260,
    warmup_steps=64,
    hidden=(16, 16),
    batch_size=16,
    delta_t=10,
    target_sync_every=25,
)


def run_rl_cell(cell, **kwargs):
    """The sweep's cell runner: an RL cell carries the env in ``dataset``."""
    return run_rl(cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs)


def signature(result):
    """Deterministic fields of an RLRunResult (timing excluded)."""
    return (
        result.episodes,
        result.train_steps,
        result.final_avg_return,
        result.best_avg_return,
        result.solved,
        result.exploration_rate,
        tuple((r.episode_return, r.length, r.train_loss) for r in result.history),
    )


class TestRunRL:
    def test_smoke_and_result_fields(self):
        result = run_rl("dst_ee", "cartpole", seed=0, **TINY)
        assert result.method == "dst_ee"
        assert result.env == "cartpole"
        assert result.total_steps == 260
        assert result.episodes == len(result.history) > 0
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.02)
        assert result.exploration_rate is not None
        assert result.masks and all(
            mask.dtype == bool for mask in result.masks.values()
        )
        assert result.model is None  # keep_model defaults off
        assert result.final_accuracy == result.final_avg_return

    def test_dense_method(self):
        result = run_rl("dense", "cartpole", seed=0, **TINY)
        assert result.actual_sparsity is None
        assert result.exploration_rate is None
        assert result.masks == {}

    def test_rejects_non_rl_methods(self):
        with pytest.raises(ValueError, match="not RL-capable"):
            run_rl("snip", "cartpole", **TINY)

    def test_keep_model_exposes_masked_network(self):
        result = run_rl("set", "cartpole", seed=1, keep_model=True, **TINY)
        assert result.model is not None
        assert result.masked is not None
        assert result.masked.global_sparsity() == pytest.approx(0.8, abs=0.02)

    def test_seed_changes_trajectory(self):
        a = run_rl("dst_ee", "cartpole", seed=0, **TINY)
        b = run_rl("dst_ee", "cartpole", seed=1, **TINY)
        assert signature(a) != signature(b)

    def test_sparse_backend_threads_through(self):
        result = run_rl("dst_ee", "cartpole", seed=0, sparse_backend="csr", **TINY)
        assert result.train_steps > 0
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.02)


class TestMultiSeed:
    def test_serial_matches_run_rl(self):
        mean, std, results = run_multi_seed(
            run_rl, "dst_ee", "cartpole", seeds=(0, 1), n_proc=1, **TINY
        )
        direct = [run_rl("dst_ee", "cartpole", seed=s, **TINY) for s in (0, 1)]
        assert [signature(r) for r in results] == [signature(r) for r in direct]
        scores = [r.final_avg_return for r in direct]
        assert mean == pytest.approx(float(np.mean(scores)))
        assert std == pytest.approx(float(np.std(scores)))

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_sharded_seeds_equal_serial(self):
        serial = run_multi_seed(run_rl, "dst_ee", "cartpole", seeds=(0, 1), n_proc=1, **TINY)
        sharded = run_multi_seed(run_rl, "dst_ee", "cartpole", seeds=(0, 1), n_proc=2, **TINY)
        assert serial[0] == sharded[0]
        assert serial[1] == sharded[1]
        for a, b in zip(serial[2], sharded[2]):
            assert signature(a) == signature(b)
            assert set(a.masks) == set(b.masks)
            for key in a.masks:
                assert np.array_equal(a.masks[key], b.masks[key])


SWEEP_KWARGS = {k: v for k, v in TINY.items() if k != "sparsity"}


class TestEnumerateRLCells:
    def test_grid_shape_and_model_tag(self):
        cells = enumerate_cells(
            ["dense", "dst_ee"], ["dqn"], ["cartpole"], [0.9, 0.95], seeds=(0, 1)
        )
        assert len(cells) == 2 * 1 * 2 * 2
        assert {cell.model for cell in cells} == {"dqn"}
        assert {cell.dataset for cell in cells} == {"cartpole"}

    def test_validates_methods_and_envs(self):
        # Unknown method names fail fast at enumeration; whether RL can run
        # a known method, and whether the env exists, is run_rl's check.
        with pytest.raises(ValueError, match="unknown method"):
            enumerate_cells(["not_a_method"], ["dqn"], ["cartpole"], [0.9])
        with pytest.raises(ValueError, match="not RL-capable"):
            run_rl("gmp", "cartpole", **TINY)
        with pytest.raises(KeyError, match="unknown environment"):
            run_rl("dst_ee", "pong", **TINY)

    def test_root_seed_derives_stable_per_cell_seeds(self):
        a = enumerate_cells(["dst_ee"], ["dqn"], ["cartpole"], [0.9], seeds=(0, 1), root_seed=7)
        b = enumerate_cells(["dst_ee"], ["dqn"], ["cartpole"], [0.9], seeds=(5, 6), root_seed=7)
        assert [cell.seed for cell in a] == [cell.seed for cell in b]
        assert len({cell.seed for cell in a}) == len(a)


class TestRLSweep:
    def test_sweep_aggregates_and_isolates_failures(self):
        cells = enumerate_cells(["dense", "dst_ee"], ["dqn"], ["cartpole"], [0.8], seeds=(0,))
        report = run_sweep(cells, run_rl_cell, n_proc=1, **SWEEP_KWARGS)
        assert not report.failures
        rows = report.aggregate()
        assert len(rows) == 2
        assert all(row["seeds_ok"] == 1 for row in rows)
        assert {row["dataset"] for row in rows} == {"cartpole"}

    def test_sweep_resume_serves_cached_cells(self, tmp_path):
        cells = enumerate_cells(["dst_ee"], ["dqn"], ["cartpole"], [0.8], seeds=(0,))
        first = run_sweep(cells, run_rl_cell, n_proc=1, checkpoint_dir=tmp_path, **SWEEP_KWARGS)
        assert not first.failures
        second = run_sweep(
            cells, run_rl_cell, n_proc=1, checkpoint_dir=tmp_path, resume=True, **SWEEP_KWARGS
        )
        assert all(outcome.cached for outcome in second.outcomes)
        assert signature(first.outcomes[0].result) == signature(second.outcomes[0].result)

    def test_sweep_reports_bad_cells_as_failures(self):
        cells = [
            SweepCell("dst_ee", "dqn", "pong", 0.8, 0),
            SweepCell("snip", "dqn", "cartpole", 0.8, 0),
            SweepCell("dst_ee", "dqn", "cartpole", 0.8, 0),
        ]
        report = run_sweep(cells, run_rl_cell, n_proc=1, **SWEEP_KWARGS)
        assert [outcome.ok for outcome in report.outcomes] == [False, False, True]
        assert "unknown environment 'pong'" in report.outcomes[0].error
        assert "not RL-capable" in report.outcomes[1].error
        assert [row["seeds_failed"] for row in report.aggregate()] == [1, 1, 0]


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run-rl"])
        assert args.command == "run-rl"
        assert args.env == "cartpole"
        assert args.method == "dst_ee"
        assert args.hidden == [256, 256]
        assert args.out is None

    def test_parser_rejects_non_rl_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-rl", "--method", "snip"])

    def test_rl_methods_are_dense_plus_dynamic(self):
        assert "dense" in RL_METHODS
        assert "dst_ee" in RL_METHODS
        assert "snip" not in RL_METHODS

    def test_cli_run_rl_end_to_end(self, capsys):
        code = main(
            [
                "run-rl", "--method", "dst_ee", "--sparsity", "0.8",
                "--total-steps", "220", "--warmup-steps", "64",
                "--hidden", "16", "16", "--batch-size", "16",
                "--delta-t", "10", "--target-sync-every", "25", "--seed", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "final avg return" in out
        assert "actual sparsity" in out

    def test_cli_run_rl_export(self, tmp_path, capsys):
        artifact = tmp_path / "policy.npz"
        code = main(
            [
                "run-rl", "--method", "dst_ee", "--sparsity", "0.8",
                "--total-steps", "220", "--warmup-steps", "64",
                "--hidden", "16", "16", "--batch-size", "16",
                "--delta-t", "10", "--target-sync-every", "25", "--seed", "0",
                "--out", str(artifact),
            ]
        )
        assert code == 0
        assert artifact.exists()
        from repro.serve import load_model

        loaded = load_model(artifact)
        assert loaded.metadata["workload"] == "rl"
        batch = np.zeros((3, 4), np.float32)
        assert loaded.predict(batch).shape == (3, 2)

    def test_cli_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["run-rl", "--resume"])

    def test_cli_seeds_reject_checkpoint_dir_and_out(self, tmp_path):
        with pytest.raises(SystemExit, match="seeds"):
            main(
                [
                    "run-rl", "--seeds", "0", "1",
                    "--checkpoint-dir", str(tmp_path),
                ]
            )
        with pytest.raises(SystemExit, match="--out"):
            main(["run-rl", "--seeds", "0", "1", "--out", "x.npz"])

    def test_cli_seeds_with_no_finished_episode_print_na(self, capsys):
        code = main(
            [
                "run-rl", "--method", "dst_ee", "--total-steps", "5",
                "--warmup-steps", "2", "--hidden", "8", "--batch-size", "2",
                "--seeds", "0", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "avg return:           n/a ± n/a" in out
        assert "nan" not in out
