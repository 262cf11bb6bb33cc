"""Learning-rate schedules."""


import numpy as np
import pytest

from repro.autograd import Tensor
from repro.optim import SGD, CosineAnnealingLR


def make_opt(lr=1.0):
    p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    return SGD([p], lr=lr)


class TestCosine:
    def test_starts_at_base_lr(self):
        opt = make_opt(0.1)
        CosineAnnealingLR(opt, t_max=10)
        assert opt.lr == pytest.approx(0.1)

    def test_halfway_is_half(self):
        opt = make_opt(0.1)
        sched = CosineAnnealingLR(opt, t_max=10)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.05, rel=1e-6)

    def test_ends_at_eta_min(self):
        opt = make_opt(0.1)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.01)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.01, abs=1e-8)

    def test_clamps_after_t_max(self):
        opt = make_opt(0.1)
        sched = CosineAnnealingLR(opt, t_max=5)
        for _ in range(20):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-8)

    def test_monotone_decreasing(self):
        opt = make_opt(1.0)
        sched = CosineAnnealingLR(opt, t_max=20)
        values = [opt.lr]
        for _ in range(20):
            sched.step()
            values.append(opt.lr)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_invalid_t_max(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(make_opt(), t_max=0)
