"""Gradient accumulation memory semantics: views, aliasing, dtype handling."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops


class TestGradientAliasing:
    def test_broadcast_gradient_is_materialized(self):
        # sum's backward broadcasts the output grad back; the stored grad
        # must be a writable standalone array, not a read-only view.
        x = Tensor(np.ones((3, 3), dtype=np.float64), requires_grad=True)
        ops.sum(x).backward()
        x.grad[0, 0] = 99.0  # must not raise (read-only views would)
        assert x.grad[0, 0] == 99.0

    def test_grad_does_not_alias_data(self):
        x = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
        y = ops.mul(x, 1.0)
        ops.sum(y).backward()
        x.grad[0] = 123.0
        assert x.data[0] == 1.0

    def test_view_gradient_is_copied_in_its_layout(self):
        # A transposed (F-ordered) view is copied, so mutating its base
        # later leaves .grad unchanged, and the copy stays F-ordered rather
        # than paying a transposing copy.
        x = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        x._accumulate(base.T)
        base[:] = -1.0
        np.testing.assert_array_equal(x.grad, np.arange(12, dtype=np.float32).reshape(3, 4).T)
        assert x.grad.base is None
        assert x.grad.flags.f_contiguous and not x.grad.flags.c_contiguous

    def test_accumulation_is_fresh_array(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        ops.sum(ops.mul(x, 2.0)).backward()
        first = x.grad
        ops.sum(ops.mul(x, 2.0)).backward()
        # Accumulation may reallocate; values must be the sum either way.
        assert np.allclose(x.grad, 4.0)
        assert np.allclose(first, 2.0) or first is x.grad

    @pytest.mark.parametrize("lead", [(16,), (4, 6)], ids=["2d", "3d"])
    def test_linear_input_gradient_arrives_owned(self, monkeypatch, lead):
        # The input gradient is a fresh product reshaped in place, so
        # ``_accumulate`` stores it without a second copy.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((*lead, 64)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((32, 64)).astype(np.float32), requires_grad=True)
        grad = rng.standard_normal((*lead, 32)).astype(np.float32)
        arrived = {}
        accumulate = Tensor._accumulate

        def spy(self, g):
            if self is x:
                arrived["grad"] = g
            accumulate(self, g)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        ops.linear(x, weight).backward(grad)
        expected = (grad.reshape(-1, 32) @ weight.data).reshape(x.shape)
        assert arrived["grad"].base is None
        assert x.grad is arrived["grad"]
        assert x.grad.tobytes() == expected.tobytes()

    def test_grad_dtype_matches_data(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        ops.sum(x).backward()
        assert x.grad.dtype == np.float32

    def test_float64_graph_stays_float64(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        out = ops.exp(ops.mul(x, 0.5))
        assert out.dtype == np.float64
        ops.sum(out).backward()
        assert x.grad.dtype == np.float64


class TestGraphLifetime:
    def test_fresh_graph_per_step_accumulates_cleanly(self):
        # The supported pattern: rebuild the graph every step; without
        # zero_grad the leaf gradients accumulate across steps.
        x = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        for _ in range(2):
            ops.sum(ops.mul(x, 3.0)).backward()
        assert np.allclose(x.grad, 6.0)

    def test_zero_grad_between_steps(self):
        x = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        for _ in range(3):
            x.zero_grad()
            ops.sum(ops.mul(x, 2.0)).backward()
            assert np.allclose(x.grad, 2.0)

    def test_constants_collect_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))  # constant
        ops.sum(ops.mul(x, c)).backward()
        assert c.grad is None

    def test_deep_graph_no_recursion_error(self):
        # The backward pass is iterative (explicit stack), so very deep
        # graphs must not hit Python's recursion limit.
        x = Tensor(np.ones(1, dtype=np.float64), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ops.add(y, 0.0)
        ops.sum(y).backward()
        assert np.allclose(x.grad, 1.0)
