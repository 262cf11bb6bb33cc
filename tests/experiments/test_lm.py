"""LM workload cells: determinism and bitwise kill-and-resume at ΔT.

The "killed" run is simulated the same way the integration resume suite
does it: a fresh ``run_lm`` call (new process state — model, optimizer,
engine, RNGs built from scratch) restored from a mid-run checkpoint taken
exactly at a ΔT mask-update boundary, trained to the same budget.  Its
trajectory, final masks, and validation numbers must match the
uninterrupted reference bitwise — serially and under ``n_workers=2``
gradient sharding.
"""

import pathlib

import numpy as np
import pytest

from repro.experiments import enumerate_cells, run_lm, run_sweep

DELTA_T = 4

BASE = dict(
    method="dst_ee",
    n_chars=2048,
    block_len=16,
    n_layer=1,
    n_head=2,
    n_embd=16,
    sparsity=0.8,
    epochs=2,
    batch_size=16,
    lr=1e-3,
    delta_t=DELTA_T,
    seed=0,
)

TRACKED_SERIES = ("train_loss", "train_accuracy", "sparsity", "exploration_rate")


def _assert_runs_identical(reference, resumed):
    assert resumed.val_loss == reference.val_loss
    assert resumed.val_perplexity == reference.val_perplexity
    assert resumed.val_next_token_accuracy == reference.val_next_token_accuracy
    assert resumed.train_loss == reference.train_loss
    assert resumed.actual_sparsity == reference.actual_sparsity
    for attribute in TRACKED_SERIES:
        assert resumed.history.series(attribute) == reference.history.series(
            attribute
        ), f"{attribute} trajectory diverged"
    assert reference.masks.keys() == resumed.masks.keys()
    for name in reference.masks:
        np.testing.assert_array_equal(reference.masks[name], resumed.masks[name])


@pytest.mark.parametrize("n_workers", [0, 2])
def test_kill_and_resume_at_delta_t_boundary_is_bitwise(tmp_path, n_workers):
    ckpt_dir = tmp_path / f"lm-ckpt-{n_workers}"
    reference = run_lm(
        **BASE,
        n_workers=n_workers,
        checkpoint_dir=ckpt_dir,
        checkpoint_every_steps=DELTA_T,
    )
    checkpoints = sorted(pathlib.Path(ckpt_dir).glob("ckpt-*.npz"))
    assert len(checkpoints) >= 2, "run too short to produce a mid-run checkpoint"
    # A checkpoint written every ΔT steps lands exactly on mask-update
    # boundaries; resume from a mid-run one, not the final state.
    boundary = checkpoints[len(checkpoints) // 2 - 1]
    resumed = run_lm(**BASE, n_workers=n_workers, resume_from=boundary)
    _assert_runs_identical(reference, resumed)


def test_serial_and_pooled_training_agree(tmp_path):
    """Pooled training matches serial up to loss-assembly summation order
    (the convention tests/parallel/test_trainer_workers.py pins); the
    masks the two modes evolve must be identical."""
    serial = run_lm(**BASE)
    pooled = run_lm(**BASE, n_workers=2)
    assert pooled.train_loss == pytest.approx(serial.train_loss)
    assert pooled.val_loss == pytest.approx(serial.val_loss)
    assert pooled.val_next_token_accuracy == pytest.approx(
        serial.val_next_token_accuracy
    )
    assert serial.masks.keys() == pooled.masks.keys()
    for name in serial.masks:
        np.testing.assert_array_equal(serial.masks[name], pooled.masks[name])


def test_same_seed_reproduces_and_seeds_differ():
    first = run_lm(**BASE)
    second = run_lm(**BASE)
    _assert_runs_identical(first, second)
    other = run_lm(**{**BASE, "seed": 1})
    assert other.val_loss != first.val_loss


def test_unknown_method_and_corpus_rejected():
    with pytest.raises(ValueError, match="not LM-capable"):
        run_lm(method="nonsense")
    with pytest.raises(ValueError, match="unknown corpus"):
        run_lm(method="dst_ee", corpus="wikitext")


def _run_lm_cell(cell, **kwargs):
    return run_lm(cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs)


def test_admm_cell_is_a_named_failure():
    """The GNN-only ADMM baseline passes the grid builder and fails as its cell."""
    cells = enumerate_cells(["admm"], ["char_gpt"], ["markov-prose"], [0.8], seeds=(0,))
    run_kwargs = {k: v for k, v in BASE.items() if k not in ("method", "sparsity", "seed")}
    report = run_sweep(cells, _run_lm_cell, n_proc=1, **run_kwargs)
    assert [outcome.ok for outcome in report.outcomes] == [False]
    assert "'admm' is not LM-capable" in report.failures[0].error


def test_sweep_resume_serves_cached_cells(tmp_path):
    cells = enumerate_cells(["dst_ee"], ["char_gpt"], ["markov-prose"], [0.8], seeds=(0, 1))
    run_kwargs = {k: v for k, v in BASE.items() if k not in ("method", "sparsity", "seed")}
    first = run_sweep(cells, _run_lm_cell, n_proc=1, checkpoint_dir=tmp_path, **run_kwargs)
    assert not first.failures
    assert [outcome.cached for outcome in first.outcomes] == [False, False]
    second = run_sweep(
        cells, _run_lm_cell, n_proc=1, checkpoint_dir=tmp_path, resume=True, **run_kwargs
    )
    assert [outcome.cached for outcome in second.outcomes] == [True, True]
    assert second.aggregate() == first.aggregate()
    for ran, served in zip(first.outcomes, second.outcomes):
        assert served.result.val_perplexity == ran.result.val_perplexity
        assert served.result.masks.keys() == ran.result.masks.keys()
        for name in ran.result.masks:
            np.testing.assert_array_equal(served.result.masks[name], ran.result.masks[name])
