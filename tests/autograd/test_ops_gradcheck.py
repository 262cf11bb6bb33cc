"""Numerical gradient checks for every primitive op.

Inputs are float64 where possible for tight tolerances; ops that are only
sub-differentiable (relu/abs/max) are checked at points away from kinks.
"""

import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops


def t64(array, requires_grad=True):
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad)


RNG = np.random.default_rng(42)


def away_from_kinks(shape, margin=0.2):
    """Random values with |x| > margin so finite differences avoid kinks."""
    values = RNG.standard_normal(shape)
    values = np.where(np.abs(values) < margin, values + np.sign(values + 1e-9), values)
    return values


class TestArithmeticGradients:
    def test_add_broadcast(self):
        a = t64(RNG.standard_normal((3, 4)))
        b = t64(RNG.standard_normal((4,)))
        gradcheck(ops.add, [a, b], atol=1e-5, rtol=1e-5)

    def test_sub_broadcast(self):
        a = t64(RNG.standard_normal((2, 3, 4)))
        b = t64(RNG.standard_normal((1, 3, 1)))
        gradcheck(ops.sub, [a, b], atol=1e-5, rtol=1e-5)

    def test_mul_broadcast(self):
        a = t64(RNG.standard_normal((3, 4)))
        b = t64(RNG.standard_normal((3, 1)))
        gradcheck(ops.mul, [a, b], atol=1e-5, rtol=1e-5)

    def test_div(self):
        a = t64(RNG.standard_normal((3, 3)))
        b = t64(away_from_kinks((3, 3), margin=0.5))
        gradcheck(ops.div, [a, b], atol=1e-4, rtol=1e-4)

    def test_neg(self):
        a = t64(RNG.standard_normal((5,)))
        gradcheck(ops.neg, [a], atol=1e-6, rtol=1e-6)

    def test_pow(self):
        a = t64(np.abs(RNG.standard_normal((4,))) + 0.5)
        gradcheck(lambda x: ops.pow(x, 3.0), [a], atol=1e-4, rtol=1e-4)

    @pytest.mark.parametrize("exponent", [0, 1, 2, 3, 4])
    def test_pow_integer_exponent_negative_bases_and_zeros(self, exponent):
        values = np.array([-2.5, -1.0, -0.3, 0.0, 0.0, 0.4, 1.7])
        weights = RNG.standard_normal(values.shape)
        gradcheck(
            lambda x: ops.mul(ops.pow(x, float(exponent)), weights),
            [t64(values)], atol=1e-5, rtol=1e-5,
        )

    def test_pow_zero_exponent_gradient_is_exactly_zero_at_zero(self):
        x = t64([-1.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops.pow(x, 0.0).backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_matmul_2d(self):
        a = t64(RNG.standard_normal((3, 4)))
        b = t64(RNG.standard_normal((4, 2)))
        gradcheck(ops.matmul, [a, b], atol=1e-5, rtol=1e-5)

    def test_matmul_batched_broadcast(self):
        a = t64(RNG.standard_normal((2, 3, 4)))
        b = t64(RNG.standard_normal((4, 5)))
        gradcheck(ops.matmul, [a, b], atol=1e-5, rtol=1e-5)


class TestElementwiseGradients:
    def test_exp(self):
        gradcheck(ops.exp, [t64(RNG.standard_normal((4,)))], atol=1e-5, rtol=1e-5)

    def test_log(self):
        gradcheck(ops.log, [t64(np.abs(RNG.standard_normal((4,))) + 0.5)], atol=1e-4, rtol=1e-4)

    def test_sqrt(self):
        gradcheck(ops.sqrt, [t64(np.abs(RNG.standard_normal((4,))) + 0.5)], atol=1e-4, rtol=1e-4)

    def test_abs(self):
        gradcheck(ops.abs, [t64(away_from_kinks((6,)))], atol=1e-5, rtol=1e-5)

    def test_tanh(self):
        gradcheck(ops.tanh, [t64(RNG.standard_normal((4,)))], atol=1e-5, rtol=1e-5)

    def test_sigmoid(self):
        gradcheck(ops.sigmoid, [t64(RNG.standard_normal((4,)))], atol=1e-5, rtol=1e-5)

    def test_relu(self):
        gradcheck(ops.relu, [t64(away_from_kinks((6,)))], atol=1e-5, rtol=1e-5)

    def test_leaky_relu(self):
        gradcheck(
            lambda x: ops.leaky_relu(x, 0.1),
            [t64(away_from_kinks((6,)))],
            atol=1e-5, rtol=1e-5,
        )

    def test_clip(self):
        values = away_from_kinks((6,)) * 2.0
        values = values[np.abs(np.abs(values) - 1.0) > 0.2]  # away from clip edges
        gradcheck(lambda x: ops.clip(x, -1.0, 1.0), [t64(values)], atol=1e-5, rtol=1e-5)

    def test_maximum(self):
        a = t64(RNG.standard_normal((5,)))
        b = t64(RNG.standard_normal((5,)) + 3.0)  # no ties
        gradcheck(ops.maximum, [a, b], atol=1e-5, rtol=1e-5)

    def test_minimum(self):
        a = t64(RNG.standard_normal((5,)))
        b = t64(RNG.standard_normal((5,)) + 3.0)
        gradcheck(ops.minimum, [a, b], atol=1e-5, rtol=1e-5)

    def test_where(self):
        cond = np.array([True, False, True, False])
        a = t64(RNG.standard_normal((4,)))
        b = t64(RNG.standard_normal((4,)))
        gradcheck(lambda x, y: ops.where(cond, x, y), [a, b], atol=1e-5, rtol=1e-5)


class TestReductionGradients:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum(self, axis, keepdims):
        a = t64(RNG.standard_normal((3, 4)))
        gradcheck(lambda x: ops.sum(x, axis=axis, keepdims=keepdims), [a], atol=1e-5, rtol=1e-5)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, True), (1, False)])
    def test_mean(self, axis, keepdims):
        a = t64(RNG.standard_normal((3, 4)))
        gradcheck(lambda x: ops.mean(x, axis=axis, keepdims=keepdims), [a], atol=1e-5, rtol=1e-5)

    def test_mean_tuple_axis(self):
        a = t64(RNG.standard_normal((2, 3, 4)))
        gradcheck(lambda x: ops.mean(x, axis=(0, 2)), [a], atol=1e-5, rtol=1e-5)

    def test_var(self):
        a = t64(RNG.standard_normal((3, 4)))
        gradcheck(lambda x: ops.var(x, axis=0), [a], atol=1e-4, rtol=1e-4)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max(self, axis):
        # Distinct values so the argmax is unique.
        values = RNG.permutation(12).astype(np.float64).reshape(3, 4)
        gradcheck(lambda x: ops.max(x, axis=axis), [t64(values)], atol=1e-4, rtol=1e-4)

    def test_min(self):
        values = RNG.permutation(12).astype(np.float64).reshape(3, 4)
        gradcheck(lambda x: ops.min(x, axis=1), [t64(values)], atol=1e-4, rtol=1e-4)


class TestFusedGradients:
    def test_gelu(self):
        # Non-uniform output gradient so every derivative term is exercised.
        a = t64(RNG.standard_normal((4, 5)) * 2.0)
        weights = RNG.standard_normal((4, 5))
        gradcheck(lambda x: ops.mul(ops.gelu(x), weights), [a], atol=1e-6, rtol=1e-6)

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_layer_norm(self, shape):
        x = t64(RNG.standard_normal(shape) * 2.0 + 1.0)
        gamma = t64(RNG.standard_normal(6) + 1.0)
        beta = t64(RNG.standard_normal(6))
        weights = RNG.standard_normal(shape)
        gradcheck(
            lambda a, g, b: ops.mul(ops.layer_norm(a, g, b, 1e-5), weights),
            [x, gamma, beta], atol=1e-6, rtol=1e-5,
        )

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear(self, bias):
        x = t64(RNG.standard_normal((5, 4)))
        w = t64(RNG.standard_normal((3, 4)))
        b = t64(RNG.standard_normal(3))
        weights = RNG.standard_normal((5, 3))
        if bias:
            fn, inputs = (lambda a, m, c: ops.mul(ops.linear(a, m, c), weights)), [x, w, b]
        else:
            fn, inputs = (lambda a, m: ops.mul(ops.linear(a, m), weights)), [x, w]
        gradcheck(fn, inputs, atol=1e-6, rtol=1e-6)

    def test_embedding(self):
        w = t64(RNG.standard_normal((6, 3)))
        idx = np.array([[0, 2], [2, 5]])
        weights = RNG.standard_normal((2, 2, 3))
        gradcheck(lambda m: ops.mul(ops.embedding(m, idx), weights), [w], atol=1e-6, rtol=1e-6)


class TestShapeGradients:
    def test_reshape(self):
        a = t64(RNG.standard_normal((3, 4)))
        gradcheck(lambda x: ops.reshape(x, (2, 6)), [a], atol=1e-6, rtol=1e-6)

    def test_transpose_default(self):
        a = t64(RNG.standard_normal((3, 4)))
        gradcheck(ops.transpose, [a], atol=1e-6, rtol=1e-6)

    def test_transpose_axes(self):
        a = t64(RNG.standard_normal((2, 3, 4)))
        gradcheck(lambda x: ops.transpose(x, (2, 0, 1)), [a], atol=1e-6, rtol=1e-6)

    def test_getitem_slice(self):
        a = t64(RNG.standard_normal((4, 5)))
        gradcheck(lambda x: ops.getitem(x, (slice(1, 3), slice(None))), [a], atol=1e-6, rtol=1e-6)

    def test_getitem_fancy(self):
        a = t64(RNG.standard_normal((6, 3)))
        idx = np.array([0, 2, 2, 5])
        gradcheck(lambda x: ops.getitem(x, idx), [a], atol=1e-6, rtol=1e-6)

    def test_cat(self):
        a = t64(RNG.standard_normal((2, 3)))
        b = t64(RNG.standard_normal((4, 3)))
        gradcheck(lambda x, y: ops.cat([x, y], axis=0), [a, b], atol=1e-6, rtol=1e-6)

    def test_stack(self):
        a = t64(RNG.standard_normal((3,)))
        b = t64(RNG.standard_normal((3,)))
        gradcheck(lambda x, y: ops.stack([x, y], axis=0), [a, b], atol=1e-6, rtol=1e-6)


class TestSoftmaxGradients:
    def test_softmax(self):
        a = t64(RNG.standard_normal((3, 5)))
        gradcheck(lambda x: ops.softmax(x, axis=1), [a], atol=1e-5, rtol=1e-5)

    def test_log_softmax(self):
        a = t64(RNG.standard_normal((3, 5)))
        gradcheck(lambda x: ops.log_softmax(x, axis=1), [a], atol=1e-5, rtol=1e-5)

    def test_log_softmax_weighted(self):
        # Non-uniform output gradient via multiplication with constants.
        a = t64(RNG.standard_normal((2, 4)))
        weights = RNG.standard_normal((2, 4))
        gradcheck(
            lambda x: ops.mul(ops.log_softmax(x, axis=1), weights),
            [a], atol=1e-5, rtol=1e-5,
        )
