"""Forward-value parity of every op against direct numpy computation."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops

RNG = np.random.default_rng(99)


def t(shape, positive=False):
    values = RNG.standard_normal(shape)
    if positive:
        values = np.abs(values) + 0.5
    return Tensor(values.astype(np.float64))


class TestElementwiseParity:
    @pytest.mark.parametrize("op_name,np_fn,positive", [
        ("exp", np.exp, False),
        ("log", np.log, True),
        ("sqrt", np.sqrt, True),
        ("abs", np.abs, False),
        ("tanh", np.tanh, False),
    ])
    def test_unary(self, op_name, np_fn, positive):
        x = t((4, 5), positive=positive)
        out = getattr(ops, op_name)(x)
        assert np.allclose(out.data, np_fn(x.data), atol=1e-10)

    @pytest.mark.parametrize("op_name,np_fn", [
        ("add", np.add),
        ("sub", np.subtract),
        ("mul", np.multiply),
    ])
    def test_binary(self, op_name, np_fn):
        a, b = t((3, 4)), t((3, 4))
        out = getattr(ops, op_name)(a, b)
        assert np.allclose(out.data, np_fn(a.data, b.data), atol=1e-10)

    def test_div(self):
        a, b = t((3, 4)), t((3, 4), positive=True)
        assert np.allclose(ops.div(a, b).data, a.data / b.data, atol=1e-10)

    def test_sigmoid_parity(self):
        x = t((10,))
        expected = 1.0 / (1.0 + np.exp(-x.data))
        assert np.allclose(ops.sigmoid(x).data, expected, atol=1e-10)

    def test_relu_parity(self):
        x = t((10,))
        assert np.allclose(ops.relu(x).data, np.maximum(x.data, 0), atol=1e-12)


class TestReductionParity:
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 1)])
    def test_sum(self, axis):
        x = t((4, 6))
        assert np.allclose(ops.sum(x, axis=axis).data, x.data.sum(axis=axis))

    @pytest.mark.parametrize("axis,keepdims", [(0, True), (1, False)])
    def test_mean(self, axis, keepdims):
        x = t((4, 6))
        assert np.allclose(
            ops.mean(x, axis=axis, keepdims=keepdims).data,
            x.data.mean(axis=axis, keepdims=keepdims),
        )

    def test_max_min(self):
        x = t((5, 5))
        assert np.allclose(ops.max(x, axis=0).data, x.data.max(axis=0))
        assert np.allclose(ops.min(x, axis=1).data, x.data.min(axis=1))

    def test_var(self):
        x = t((8, 3))
        assert np.allclose(ops.var(x, axis=0).data, x.data.var(axis=0), atol=1e-10)


class TestMatmulParity:
    def test_2d(self):
        a, b = t((4, 7)), t((7, 3))
        assert np.allclose(ops.matmul(a, b).data, a.data @ b.data, atol=1e-10)

    def test_batched(self):
        a, b = t((5, 4, 7)), t((5, 7, 3))
        assert np.allclose(ops.matmul(a, b).data, a.data @ b.data, atol=1e-10)

    def test_broadcast_batch(self):
        a, b = t((5, 4, 7)), t((7, 3))
        assert np.allclose(ops.matmul(a, b).data, a.data @ b.data, atol=1e-10)


class TestShapeParity:
    def test_reshape_transpose(self):
        x = t((2, 3, 4))
        assert np.array_equal(ops.reshape(x, (6, 4)).data, x.data.reshape(6, 4))
        assert np.array_equal(
            ops.transpose(x, (2, 0, 1)).data, np.transpose(x.data, (2, 0, 1))
        )

    def test_getitem_variants(self):
        x = t((6, 5))
        assert np.array_equal(ops.getitem(x, 2).data, x.data[2])
        assert np.array_equal(
            ops.getitem(x, (slice(1, 4), slice(None, 2))).data, x.data[1:4, :2]
        )
        idx = np.array([0, 3, 3])
        assert np.array_equal(ops.getitem(x, idx).data, x.data[idx])


class TestSoftmaxParity:
    def test_softmax_vs_scipy(self):
        from scipy.special import softmax as scipy_softmax

        x = t((4, 9))
        assert np.allclose(
            ops.softmax(x, axis=1).data, scipy_softmax(x.data, axis=1), atol=1e-10
        )

    def test_log_softmax_vs_scipy(self):
        from scipy.special import log_softmax as scipy_log_softmax

        x = t((4, 9))
        assert np.allclose(
            ops.log_softmax(x, axis=1).data,
            scipy_log_softmax(x.data, axis=1),
            atol=1e-10,
        )
