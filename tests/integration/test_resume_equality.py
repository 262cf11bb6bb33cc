"""Kill-and-resume bitwise equality (the checkpoint subsystem's guarantee).

The reference run trains uninterrupted while writing a checkpoint after
every step.  A "killed" run is simulated by constructing the identical
setup from scratch (fresh process state: new model, optimizer, engine,
RNGs) and restoring a mid-training checkpoint — exactly what a restarted
job does — then training to the same budget.  Everything that defines the
science must match bitwise: loss/accuracy trajectories, learning rates,
final masks, coverage counters, model parameters and optimizer moments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.nn.losses import cross_entropy
from repro.optim import SGD, Adam, CosineAnnealingLR
from repro.experiments.registry import build_method
from repro.models import resnet50_mini
from repro.sparse.kernels import Conv2dKernel
from repro.train import (
    CheckpointCallback,
    Trainer,
    load_training_checkpoint,
)

EPOCHS = 4
BATCH_SIZE = 32
DELTA_T = 4

TRACKED_SERIES = (
    "train_loss", "train_accuracy", "test_accuracy", "learning_rate",
    "sparsity", "exploration_rate",
)


def _build(tiny_data, tiny_mlp_factory, method, *, optimizer_cls=SGD,
           callbacks=(), n_workers=0, seed=0, block_size=None, sparse_backend=None):
    model = tiny_mlp_factory(seed)
    train_loader = DataLoader(
        tiny_data.train, batch_size=BATCH_SIZE, shuffle=True,
        rng=np.random.default_rng(seed + 1),
    )
    test_loader = DataLoader(tiny_data.test, batch_size=64)
    if optimizer_cls is SGD:
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    else:
        optimizer = optimizer_cls(model.parameters(), lr=1e-3)
    scheduler = CosineAnnealingLR(optimizer, t_max=EPOCHS)
    total_steps = EPOCHS * len(train_loader)
    setup = build_method(
        method, model, optimizer, 0.8, total_steps,
        delta_t=DELTA_T, rng=np.random.default_rng(seed),
        block_size=block_size,
    )
    trainer = Trainer(
        model, optimizer, cross_entropy, train_loader, test_loader,
        scheduler=scheduler, controller=setup.controller,
        callbacks=list(callbacks), n_workers=n_workers, sparse_backend=sparse_backend,
    )
    return trainer, setup


def _assert_identical(reference, resumed, ref_setup, res_setup):
    for attribute in TRACKED_SERIES:
        assert resumed.history.series(attribute) == reference.history.series(
            attribute
        ), f"{attribute} trajectory diverged"
    ref_masks = ref_setup.masked.masks_snapshot()
    res_masks = res_setup.masked.masks_snapshot()
    assert ref_masks.keys() == res_masks.keys()
    for name in ref_masks:
        np.testing.assert_array_equal(ref_masks[name], res_masks[name])
    ref_cov = ref_setup.controller.coverage
    res_cov = res_setup.controller.coverage
    assert ref_cov.rounds == res_cov.rounds
    for name in ref_cov.counters:
        np.testing.assert_array_equal(ref_cov.counters[name], res_cov.counters[name])
        np.testing.assert_array_equal(
            ref_cov.ever_active[name], res_cov.ever_active[name]
        )
    for p_ref, p_res in zip(reference.model.parameters(), resumed.model.parameters()):
        np.testing.assert_array_equal(p_ref.data, p_res.data)
    for p_ref, p_res in zip(reference.optimizer.params, resumed.optimizer.params):
        s_ref = reference.optimizer.state.get(id(p_ref), {})
        s_res = resumed.optimizer.state.get(id(p_res), {})
        assert s_ref.keys() == s_res.keys()
        for key in s_ref:
            if isinstance(s_ref[key], np.ndarray):
                np.testing.assert_array_equal(s_ref[key], s_res[key])
            else:
                assert s_ref[key] == s_res[key]


def _reference_with_checkpoints(tiny_data, tiny_mlp_factory, method, tmp_path,
                                **kwargs):
    callback = CheckpointCallback(
        tmp_path, every_n_epochs=None, every_n_steps=1
    )
    reference, ref_setup = _build(
        tiny_data, tiny_mlp_factory, method, callbacks=[callback], **kwargs
    )
    reference.fit(EPOCHS)
    return reference, ref_setup


def _resume_at(tiny_data, tiny_mlp_factory, method, tmp_path, step, **kwargs):
    path = tmp_path / f"ckpt-{step:010d}.npz"
    assert path.exists(), f"no checkpoint at step {step}"
    resumed, res_setup = _build(tiny_data, tiny_mlp_factory, method, **kwargs)
    resumed.load_state_dict(load_training_checkpoint(path))
    resumed.fit(EPOCHS)
    return resumed, res_setup


class TestKillAndResume:
    # dst_ee: coverage counters; rigl: gradient growth; deepr: engine RNG +
    # sign references; snfs: dense-gradient EMA.  Together they exercise
    # every piece of engine state the checkpoint carries.
    @pytest.mark.parametrize("method", ["dst_ee", "rigl", "deepr", "snfs"])
    def test_mid_epoch_resume_is_bitwise_identical(
        self, method, tiny_data, tiny_mlp_factory, tmp_path
    ):
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, method, tmp_path
        )
        steps_per_epoch = len(reference.train_loader)
        # An arbitrary step inside epoch 1, between mask-update boundaries.
        step = steps_per_epoch + 2
        assert step % DELTA_T != 0
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, method, tmp_path, step
        )
        _assert_identical(reference, resumed, ref_setup, res_setup)

    def test_resume_exactly_at_mask_update_step(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        """Interrupt between a drop-and-grow and the next optimizer step."""
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path
        )
        update_steps = [r.step for r in ref_setup.controller.history]
        assert update_steps, "no mask updates happened; shrink DELTA_T"
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, update_steps[0]
        )
        _assert_identical(reference, resumed, ref_setup, res_setup)

    def test_adam_moments_survive_resume(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, optimizer_cls=Adam
        )
        step = len(reference.train_loader) + 1
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, step,
            optimizer_cls=Adam,
        )
        _assert_identical(reference, resumed, ref_setup, res_setup)
        # Explicitly: Adam step counts advanced past the checkpoint match.
        for p_ref, p_res in zip(
            reference.optimizer.params, resumed.optimizer.params
        ):
            s_ref = reference.optimizer.state.get(id(p_ref), {})
            if "step" in s_ref:
                assert s_ref["step"] > 0
                assert resumed.optimizer.state[id(p_res)]["step"] == s_ref["step"]

    def test_block_mask_resume_is_bitwise_identical(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        """Block-structured masks survive kill-and-resume bit-for-bit.

        The block bookkeeping (active-block triplets, block indexers) is
        rebuilt from the checkpointed masks; drop-and-grow rounds after the
        resume must pick the same blocks as the uninterrupted run.
        """
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, block_size=4
        )
        assert all(t.block_size == 4 for t in ref_setup.masked.targets)
        step = len(reference.train_loader) + 2
        assert step % DELTA_T != 0
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, step, block_size=4
        )
        # Mask updates happened after the resume point, on block granularity.
        assert any(r.step > step for r in ref_setup.controller.history)
        _assert_identical(reference, resumed, ref_setup, res_setup)

    def test_block_mask_resume_with_gradient_workers(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("fork not available")
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path,
            block_size=4, n_workers=2,
        )
        step = len(reference.train_loader) + 3
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, step,
            block_size=4, n_workers=2,
        )
        _assert_identical(reference, resumed, ref_setup, res_setup)

    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_block_sparse_conv_resume_is_bitwise_identical(
        self, n_workers, tiny_data, tmp_path
    ):
        """A BSR-kernel ResNet (strided 3x3 and 1x1 convs) resumes bit-for-bit
        across a drop-and-grow round."""
        from repro.parallel import fork_available

        if n_workers and not fork_available():
            pytest.skip("fork not available")

        def factory(seed):
            return resnet50_mini(num_classes=4, seed=seed)

        kwargs = dict(block_size=4, sparse_backend="bsr", n_workers=n_workers)
        step = 7  # mid-epoch, one step before a drop-and-grow round
        assert (step + 1) % DELTA_T == 0
        # Checkpoint only at the kill step: ResNet checkpoints are slow to write.
        callback = CheckpointCallback(tmp_path, every_n_epochs=None, every_n_steps=step)
        reference, ref_setup = _build(
            tiny_data, factory, "dst_ee", callbacks=[callback], **kwargs
        )
        reference.fit(EPOCHS)
        bsr = [
            m for m in reference.model.modules()
            if isinstance(getattr(m, "forward_backend", None), Conv2dKernel)
            and m.forward_backend.backend() == "bsr"
        ]
        assert {m.stride for m in bsr} == {1, 2}
        assert {m.kernel_size for m in bsr} == {(1, 1), (3, 3)}
        resumed, res_setup = _resume_at(tiny_data, factory, "dst_ee", tmp_path, step, **kwargs)
        assert any(r.step > step for r in ref_setup.controller.history)
        _assert_identical(reference, resumed, ref_setup, res_setup)

    def test_resume_with_gradient_workers(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("fork not available")
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "rigl", tmp_path, n_workers=2
        )
        step = len(reference.train_loader) + 3
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "rigl", tmp_path, step, n_workers=2
        )
        _assert_identical(reference, resumed, ref_setup, res_setup)

    def test_resume_from_final_checkpoint_trains_nothing(
        self, tiny_data, tiny_mlp_factory, tmp_path
    ):
        reference, ref_setup = _reference_with_checkpoints(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path
        )
        final_step = EPOCHS * len(reference.train_loader)
        resumed, res_setup = _resume_at(
            tiny_data, tiny_mlp_factory, "dst_ee", tmp_path, final_step
        )
        assert resumed.global_step == final_step
        _assert_identical(reference, resumed, ref_setup, res_setup)
