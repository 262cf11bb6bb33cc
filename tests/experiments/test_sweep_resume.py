"""Sweep-level fault tolerance: completed cells skip, partial cells resume.

The interrupted sweep is simulated deterministically: a step-granular
callback raises ``_SimulatedKill`` inside one cell after a few training
steps.  ``run_sweep``'s crash isolation records that cell as failed (its
checkpoints are already on disk), and the rerun with ``resume=True`` must
(a) serve every completed cell from its on-disk record without re-running
it, (b) resume the interrupted cell from its latest checkpoint, and
(c) aggregate to exactly the report an uninterrupted sweep produces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments.registry import enumerate_cells
from repro.experiments.runner import cell_key, run_sweep
from repro.train.callbacks import Callback

METHODS = ("set", "dst_ee")
EPOCHS = 2


class _SimulatedKill(RuntimeError):
    pass


class _KillAfterSteps(Callback):
    def __init__(self, after_steps: int):
        self.after_steps = int(after_steps)
        self._seen = 0

    def on_step_end(self, step: int) -> None:
        self._seen += 1
        if self._seen >= self.after_steps:
            raise _SimulatedKill(f"simulated kill after {self._seen} steps")


@pytest.fixture
def sweep_inputs(tiny_data, tiny_mlp_factory):
    cells = enumerate_cells(METHODS, ["mlp"], ["tiny"], [0.8], seeds=[0])
    factories = {"mlp": tiny_mlp_factory}
    datasets = {"tiny": tiny_data}
    return cells, factories, datasets


def _cell_runner(factories, datasets):
    # Looks the entrypoint up at call time so monkeypatching it works.
    def run_cell(cell, **kwargs):
        return runner_module.run_image_classification(
            cell.method, factories[cell.model], datasets[cell.dataset],
            sparsity=cell.sparsity, seed=cell.seed, **kwargs,
        )

    return run_cell


def _run(cells, factories, datasets, **kwargs):
    return run_sweep(
        cells, _cell_runner(factories, datasets), n_proc=1,
        epochs=EPOCHS, batch_size=32, delta_t=3,
        checkpoint_every_steps=1,
        **kwargs,
    )


class TestSweepResume:
    def test_interrupted_sweep_resumes_to_identical_report(
        self, sweep_inputs, tmp_path, monkeypatch
    ):
        cells, factories, datasets = sweep_inputs
        reference = _run(cells, factories, datasets, checkpoint_dir=tmp_path / "ref")

        # --- pass 1: the second cell dies mid-training -------------------
        victim = cells[1]
        original = runner_module.run_image_classification

        def sabotaged(method, *args, **kwargs):
            if method == victim.method:
                kwargs = dict(kwargs)
                kwargs["callbacks"] = [
                    *kwargs.get("callbacks", ()), _KillAfterSteps(3),
                ]
            return original(method, *args, **kwargs)

        monkeypatch.setattr(
            runner_module, "run_image_classification", sabotaged
        )
        killed_dir = tmp_path / "killed"
        first = _run(cells, factories, datasets, checkpoint_dir=killed_dir)
        monkeypatch.undo()

        assert [o.ok for o in first.outcomes] == [True, False]
        assert "_SimulatedKill" in first.outcomes[1].error
        # The surviving cell's record and the victim's checkpoints exist.
        assert (killed_dir / cell_key(cells[0]) / "result.pkl").exists()
        assert not (killed_dir / cell_key(victim) / "result.pkl").exists()
        assert list((killed_dir / cell_key(victim)).glob("ckpt-*.npz"))

        # --- pass 2: resume ---------------------------------------------
        second = _run(
            cells, factories, datasets, checkpoint_dir=killed_dir, resume=True
        )
        assert [o.ok for o in second.outcomes] == [True, True]
        assert second.outcomes[0].cached is True  # served, not re-run
        assert second.outcomes[1].cached is False  # resumed from checkpoint

        assert second.aggregate() == reference.aggregate()
        for ref_outcome, res_outcome in zip(reference.outcomes, second.outcomes):
            ref_result, res_result = ref_outcome.result, res_outcome.result
            assert res_result.final_accuracy == ref_result.final_accuracy
            assert res_result.best_accuracy == ref_result.best_accuracy
            assert res_result.exploration_rate == ref_result.exploration_rate
            assert res_result.actual_sparsity == ref_result.actual_sparsity
            assert (
                res_result.training_flops_multiplier
                == ref_result.training_flops_multiplier
            )
            assert ref_result.masks.keys() == res_result.masks.keys()
            for name in ref_result.masks:
                np.testing.assert_array_equal(
                    ref_result.masks[name], res_result.masks[name]
                )
            assert res_result.history.series("train_loss") == (
                ref_result.history.series("train_loss")
            )

    def test_cached_cells_do_not_rerun(self, sweep_inputs, tmp_path, monkeypatch):
        cells, factories, datasets = sweep_inputs
        _run(cells, factories, datasets, checkpoint_dir=tmp_path)

        calls = []
        original = runner_module.run_image_classification

        def counting(method, *args, **kwargs):
            calls.append(method)
            return original(method, *args, **kwargs)

        monkeypatch.setattr(runner_module, "run_image_classification", counting)
        report = _run(
            cells, factories, datasets, checkpoint_dir=tmp_path, resume=True
        )
        assert calls == []  # everything served from records
        assert all(outcome.cached for outcome in report.outcomes)

    def test_manifest_written_and_updated(self, sweep_inputs, tmp_path):
        cells, factories, datasets = sweep_inputs
        _run(cells, factories, datasets, checkpoint_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["cells"]) == {cell_key(cell) for cell in cells}
        assert all(
            entry["status"] == "ok" and entry["final_accuracy"] is not None
            for entry in manifest["cells"].values()
        )
        report = _run(
            cells, factories, datasets, checkpoint_dir=tmp_path, resume=True
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all(entry["cached"] for entry in manifest["cells"].values())
        assert all(outcome.cached for outcome in report.outcomes)

    def test_resume_requires_checkpoint_dir(self, sweep_inputs):
        cells, factories, datasets = sweep_inputs
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_sweep(cells, _cell_runner(factories, datasets), resume=True)

    def test_corrupt_cell_record_is_rerun(self, sweep_inputs, tmp_path):
        cells, factories, datasets = sweep_inputs
        reference = _run(cells, factories, datasets, checkpoint_dir=tmp_path)
        record = tmp_path / cell_key(cells[0]) / "result.pkl"
        record.write_bytes(b"torn write garbage")
        report = _run(
            cells, factories, datasets, checkpoint_dir=tmp_path, resume=True
        )
        assert report.outcomes[0].cached is False
        assert report.outcomes[0].ok
        assert report.aggregate() == reference.aggregate()

    def test_changed_config_invalidates_cached_cells(self, sweep_inputs, tmp_path):
        """Stale records from a sweep run with different arguments must be
        re-run, not silently served (cell_key doesn't encode epochs/lr)."""
        cells, factories, datasets = sweep_inputs
        _run(cells, factories, datasets, checkpoint_dir=tmp_path)
        report = run_sweep(
            cells, _cell_runner(factories, datasets), n_proc=1,
            epochs=EPOCHS + 1, batch_size=32, delta_t=3,  # changed budget
            checkpoint_every_steps=1,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert all(not outcome.cached for outcome in report.outcomes)
        assert all(outcome.ok for outcome in report.outcomes)
        assert all(
            len(outcome.result.history) == EPOCHS + 1
            for outcome in report.outcomes
        )
