"""Optimizer and LR-scheduler checkpoint state (resume-exact restore)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.optim import SGD, Adam, CosineAnnealingLR, LRScheduler


def _params(rng, shapes=((4, 3), (3,))):
    return [Tensor(rng.normal(size=shape).astype(np.float32)) for shape in shapes]


class _ConstantLR(LRScheduler):
    """A second scheduler type, to check that restore refuses a foreign state."""

    def get_lr(self) -> float:
        return self.base_lr


def _give_grads(params, rng):
    for param in params:
        param.grad = rng.normal(size=param.data.shape).astype(np.float32)


class TestOptimizerStateDict:
    def test_sgd_roundtrip_bitwise(self, rng):
        params = _params(rng)
        optimizer = SGD(params, lr=0.1, momentum=0.9, weight_decay=1e-4)
        for _ in range(3):
            _give_grads(params, rng)
            optimizer.step()
        state = optimizer.state_dict()

        fresh_params = [Tensor(p.data.copy()) for p in params]
        fresh = SGD(fresh_params, lr=0.1, momentum=0.9, weight_decay=1e-4)
        fresh.load_state_dict(state)

        _give_grads(params, rng)
        for old, new in zip(params, fresh_params):
            new.grad = old.grad.copy()
        optimizer.step()
        fresh.step()
        for old, new in zip(params, fresh_params):
            np.testing.assert_array_equal(old.data, new.data)

    def test_adam_roundtrip_restores_moments_and_step_counts(self, rng):
        params = _params(rng)
        optimizer = Adam(params, lr=1e-3)
        for _ in range(4):
            _give_grads(params, rng)
            optimizer.step()
        state = optimizer.state_dict()

        fresh_params = [Tensor(p.data.copy()) for p in params]
        fresh = Adam(fresh_params, lr=1e-3)
        fresh.load_state_dict(state)
        for old, new in zip(params, fresh_params):
            old_state = optimizer.state[id(old)]
            new_state = fresh.state[id(new)]
            assert old_state["step"] == new_state["step"] == 4
            np.testing.assert_array_equal(old_state["m"], new_state["m"])
            np.testing.assert_array_equal(old_state["v"], new_state["v"])
            assert new_state["m"] is not old_state["m"]  # restored copies

    def test_state_dict_snapshot_is_isolated(self, rng):
        params = _params(rng)
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        _give_grads(params, rng)
        optimizer.step()
        state = optimizer.state_dict()
        snapshot = state["state"][0]["momentum"].copy()
        _give_grads(params, rng)
        optimizer.step()  # must not mutate the earlier snapshot
        np.testing.assert_array_equal(state["state"][0]["momentum"], snapshot)

    def test_type_mismatch_rejected(self, rng):
        params = _params(rng)
        state = SGD(params, lr=0.1).state_dict()
        with pytest.raises(ValueError, match="SGD"):
            Adam(_params(rng), lr=0.1).load_state_dict(state)

    def test_param_count_mismatch_rejected(self, rng):
        state = SGD(_params(rng), lr=0.1).state_dict()
        other = SGD(_params(rng, shapes=((4, 3),)), lr=0.1)
        with pytest.raises(ValueError, match="state for 2 parameters"):
            other.load_state_dict(state)


class TestSchedulerStateDict:
    def test_cosine_roundtrip(self, rng):
        optimizer = SGD(_params(rng), lr=0.5)
        scheduler = CosineAnnealingLR(optimizer, t_max=10)
        for _ in range(4):
            scheduler.step()
        state = scheduler.state_dict()

        fresh_opt = SGD(_params(rng), lr=0.5)
        fresh = CosineAnnealingLR(fresh_opt, t_max=10)
        fresh.load_state_dict(state)
        assert fresh.last_epoch == scheduler.last_epoch
        assert fresh_opt.lr == optimizer.lr
        scheduler.step()
        fresh.step()
        assert fresh_opt.lr == optimizer.lr

    def test_type_mismatch_rejected(self, rng):
        optimizer = SGD(_params(rng), lr=0.5)
        state = CosineAnnealingLR(optimizer, t_max=10).state_dict()
        with pytest.raises(ValueError, match="CosineAnnealingLR"):
            _ConstantLR(SGD(_params(rng), lr=0.5)).load_state_dict(state)


class TestExplicitBaseLR:
    """Constructing against an already-decayed optimizer must not corrupt
    the schedule when the true base LR is passed explicitly (the old code
    silently captured the decayed ``optimizer.lr`` as ``base_lr``)."""

    def test_decayed_optimizer_with_explicit_base_lr(self, rng):
        optimizer = SGD(_params(rng), lr=0.5)
        reference = CosineAnnealingLR(optimizer, t_max=10)
        for _ in range(6):
            reference.step()
        decayed_lr = optimizer.lr
        assert decayed_lr < 0.5

        # A scheduler built on the decayed optimizer, told the real base.
        rebuilt = CosineAnnealingLR(optimizer, t_max=10, base_lr=0.5)
        assert rebuilt.base_lr == 0.5
        rebuilt.last_epoch = reference.last_epoch
        assert rebuilt.get_lr() == reference.get_lr()

    def test_default_still_captures_optimizer_lr(self, rng):
        optimizer = SGD(_params(rng), lr=0.25)
        scheduler = CosineAnnealingLR(optimizer, t_max=2)
        assert scheduler.base_lr == 0.25

    def test_load_state_dict_repairs_captured_base_lr(self, rng):
        optimizer = SGD(_params(rng), lr=0.5)
        reference = CosineAnnealingLR(optimizer, t_max=10)
        for _ in range(6):
            reference.step()
        state = reference.state_dict()

        # Worst case: scheduler rebuilt against the decayed optimizer with
        # no explicit base_lr — restore must still fix the whole schedule.
        corrupted = CosineAnnealingLR(optimizer, t_max=10)
        assert corrupted.base_lr != 0.5
        corrupted.load_state_dict(state)
        assert corrupted.base_lr == 0.5
        assert corrupted.get_lr() == reference.get_lr()
