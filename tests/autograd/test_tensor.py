"""Tensor core behaviour: construction, backward, no_grad, accumulation."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.autograd import ops


class TestConstruction:
    def test_from_list_uses_float32(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_from_int_array_keeps_dtype(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.int64 or t.dtype == np.int32

    def test_from_tensor_shares_data(self):
        a = Tensor(np.arange(3.0, dtype=np.float32))
        b = Tensor(a)
        assert b.data is a.data

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_repr_contains_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0], requires_grad=True)
        y = ops.mul(x, x)
        y.backward()
        assert x.grad == pytest.approx([4.0])

    def test_backward_without_grad_on_nonscalar_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ops.mul(x, 2.0)
        with pytest.raises(RuntimeError, match="scalar"):
            y.backward()

    def test_backward_on_constant_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError, match="does not require grad"):
            x.backward()

    def test_gradient_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(3):
            y = ops.mul(x, 2.0)
            y.backward(np.ones(1))
        assert x.grad == pytest.approx([6.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        ops.mul(x, 2.0).backward(np.ones(1))
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x  →  dy/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        a = ops.mul(x, x)
        b = ops.mul(x, x)
        y = ops.add(a, b)
        y.backward(np.ones(1))
        assert x.grad == pytest.approx([12.0])

    def test_shared_subexpression(self):
        # z = (x+1) * (x+1): reuse the same node twice.
        x = Tensor([2.0], requires_grad=True)
        s = ops.add(x, 1.0)
        z = ops.mul(s, s)
        z.backward(np.ones(1))
        assert x.grad == pytest.approx([6.0])

    def test_long_chain(self):
        x = Tensor([1.5], requires_grad=True)
        y = x
        for _ in range(50):
            y = ops.mul(y, 1.1)
        y.backward(np.ones(1))
        assert x.grad == pytest.approx([1.1**50], rel=1e-4)

    def test_interior_grad_freed_leaf_kept(self):
        x = Tensor(np.ones(3), requires_grad=True)
        middle = ops.mul(x, 2.0)
        out = ops.sum(middle)
        out.backward()
        assert x.grad is not None
        assert middle.grad is None


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_tensor_created_inside_no_grad_is_constant(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestDetachCopy:
    def test_detach_shares_data(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        d = x.detach()
        assert d.data is x.data
        assert not d.requires_grad

    def test_copy_is_deep(self):
        x = Tensor([1.0, 2.0])
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_astype(self):
        x = Tensor([1.5, 2.5])
        assert x.astype(np.float64).dtype == np.float64


class TestOperatorOverloads:
    def test_add_sub_mul_div_neg(self):
        x = Tensor([4.0], requires_grad=True)
        y = (-((x + 2.0) * 3.0 - 6.0) / 2.0)
        # y = -(3x + 6 - 6)/2 = -1.5 x
        y.backward(np.ones(1))
        assert y.data == pytest.approx([-6.0])
        assert x.grad == pytest.approx([-1.5])

    def test_radd_rsub_rmul_rtruediv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 + x
        assert y.data == pytest.approx([3.0])
        z = 10.0 - x
        assert z.data == pytest.approx([8.0])
        w = 3.0 * x
        assert w.data == pytest.approx([6.0])
        v = 8.0 / x
        assert v.data == pytest.approx([4.0])

    def test_pow(self):
        x = Tensor([3.0], requires_grad=True)
        y = x**2
        y.backward(np.ones(1))
        assert x.grad == pytest.approx([6.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        assert np.allclose((a @ b).data, np.ones((2, 2)))

    def test_getitem(self):
        x = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
        y = x[0]
        ops.sum(y).backward()
        expected = np.zeros((2, 3))
        expected[0] = 1.0
        assert np.allclose(x.grad, expected)

    def test_method_shortcuts(self):
        x = Tensor(np.full((2, 2), 4.0, dtype=np.float32))
        assert np.allclose(x.sqrt().data, 2.0)
        assert np.allclose(x.abs().data, 4.0)
        assert x.sum().item() == pytest.approx(16.0)
        assert x.mean().item() == pytest.approx(4.0)
        assert x.flatten().shape == (4,)
        assert x.reshape(4).shape == (4,)
        assert x.T.shape == (2, 2)
