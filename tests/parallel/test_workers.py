"""Data-parallel gradient workers: all-reduce semantics and shared memory."""

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor
from repro.models import MLP
from repro.parallel import GradientWorkerPool, fork_available
from repro.sparse import MaskedModel

pytestmark = pytest.mark.skipif(not fork_available(), reason="no fork support")


def _batch(n=16, features=20, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, features)).astype(np.float32)
    y = rng.integers(0, classes, n)
    return x, y


def _serial_grads(model, x, y):
    model.zero_grad()
    loss = nn.cross_entropy(model(Tensor(x)), y)
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


class TestGradientWorkerPool:
    def test_rejects_single_worker(self):
        model = MLP(4, (8,), 2, seed=0)
        with pytest.raises(ValueError):
            GradientWorkerPool(model, nn.cross_entropy, n_workers=1)

    def test_averaged_gradients_match_serial(self):
        model = MLP(20, (32,), 5, seed=0)
        x, y = _batch()
        serial_loss, serial_grads = _serial_grads(model, x, y)
        with GradientWorkerPool(model, nn.cross_entropy, n_workers=2) as pool:
            model.zero_grad()
            loss, acc = pool.step(Tensor(x), y)
            parallel_grads = [p.grad.copy() for p in model.parameters()]
        assert loss == pytest.approx(serial_loss, rel=1e-6)
        assert 0.0 <= acc <= 1.0
        for sg, pg in zip(serial_grads, parallel_grads):
            np.testing.assert_allclose(sg, pg, atol=1e-6)

    def test_workers_see_parent_weight_updates(self):
        # Parameters live in shared memory: an in-place parent update must
        # change the workers' next forward without any broadcast step.
        model = MLP(20, (32,), 5, seed=0)
        x, y = _batch(seed=3)
        with GradientWorkerPool(model, nn.cross_entropy, n_workers=2) as pool:
            loss_before, _ = pool.step(Tensor(x), y)
            for param in model.parameters():
                param.data *= 0.5
            loss_after, _ = pool.step(Tensor(x), y)
        model2 = MLP(20, (32,), 5, seed=0)
        for param in model2.parameters():
            param.data *= 0.5
        expected, _ = _serial_grads(model2, x, y)
        assert loss_after != loss_before
        assert loss_after == pytest.approx(expected, rel=1e-6)

    def test_batch_smaller_than_workers(self):
        model = MLP(20, (32,), 5, seed=0)
        x, y = _batch(n=2)
        serial_loss, serial_grads = _serial_grads(model, x, y)
        with GradientWorkerPool(model, nn.cross_entropy, n_workers=4) as pool:
            model.zero_grad()
            loss, _ = pool.step(Tensor(x), y)
            parallel_grads = [p.grad.copy() for p in model.parameters()]
        assert loss == pytest.approx(serial_loss, rel=1e-6)
        for sg, pg in zip(serial_grads, parallel_grads):
            np.testing.assert_allclose(sg, pg, atol=1e-6)

    def test_mask_resync_on_version_bump(self):
        # After a parent-side mask edit, worker forwards run on the newly
        # masked (zeroed) weights: gradients w.r.t. the input must match a
        # serial model with the same mask applied.
        model = MLP(20, (32,), 5, seed=0)
        masked = MaskedModel(model, 0.5, distribution="uniform",
                             rng=np.random.default_rng(1))
        x, y = _batch(seed=5)
        with GradientWorkerPool(model, nn.cross_entropy, n_workers=2,
                                masked=masked) as pool:
            pool.step(Tensor(x), y)
            # Drop every remaining weight of the first layer.
            target = masked.targets[0]
            target.mask = np.zeros_like(target.mask)
            masked.apply_masks()
            loss, _ = pool.step(Tensor(x), y)
            grads = [p.grad.copy() for p in model.parameters()]
        serial_loss, serial_grads = _serial_grads(model, x, y)
        assert loss == pytest.approx(serial_loss, rel=1e-6)
        for sg, pg in zip(serial_grads, grads):
            np.testing.assert_allclose(sg, pg, atol=1e-6)

    def test_rebinding_optimizers_keep_workers_in_sync(self):
        # Adam's dense step REPLACES param.data with a fresh private array;
        # the pool must re-attach it to shared memory before the next step
        # or workers keep computing against frozen weights.
        from repro.optim import Adam

        def train(n_workers):
            model = MLP(20, (32,), 5, seed=0)
            optimizer = Adam(model.parameters(), lr=0.01)
            x, y = _batch(seed=7)
            losses = []
            if n_workers:
                pool = GradientWorkerPool(model, nn.cross_entropy, n_workers)
            try:
                for _ in range(4):
                    model.zero_grad()
                    if n_workers:
                        loss, _ = pool.step(Tensor(x), y)
                    else:
                        out = nn.cross_entropy(model(Tensor(x)), y)
                        out.backward()
                        loss = out.item()
                    optimizer.step()
                    losses.append(round(loss, 5))
            finally:
                if n_workers:
                    pool.close()
            return losses

        serial, parallel = train(0), train(2)
        assert serial == pytest.approx(parallel, rel=1e-5)
        assert serial[-1] < serial[0]  # actually learning, not frozen

    def test_unused_parameter_keeps_grad_none(self):
        from repro.nn.module import Module, Parameter

        class WithUnused(Module):
            def __init__(self):
                super().__init__()
                self.body = MLP(20, (16,), 5, seed=0)
                self.unused = Parameter(np.ones(7, dtype=np.float32))

            def forward(self, x):
                return self.body(x)

        model = WithUnused()
        x, y = _batch()
        with GradientWorkerPool(model, nn.cross_entropy, n_workers=2) as pool:
            model.zero_grad()
            pool.step(Tensor(x), y)
            assert model.unused.grad is None  # optimizer must skip it
            assert all(p.grad is not None for p in model.body.parameters())

    def test_close_restores_private_parameters(self):
        model = MLP(8, (8,), 2, seed=0)
        pool = GradientWorkerPool(model, nn.cross_entropy, n_workers=2)
        assert all(p.data.base is not None for p in model.parameters())
        values = [p.data.copy() for p in model.parameters()]
        pool.close()
        for param, old in zip(model.parameters(), values):
            assert param.data.base is None
            np.testing.assert_array_equal(param.data, old)
        pool.close()  # idempotent

    def test_step_after_close_raises(self):
        model = MLP(8, (8,), 2, seed=0)
        pool = GradientWorkerPool(model, nn.cross_entropy, n_workers=2)
        pool.close()
        x, y = _batch(n=4, features=8, classes=2)
        with pytest.raises(RuntimeError):
            pool.step(Tensor(x), y)
