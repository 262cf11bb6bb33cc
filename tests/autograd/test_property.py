"""Hypothesis property tests for the autograd engine.

These verify algebraic identities of differentiation that must hold for any
input: linearity of the backward map, the chain rule through composition,
and consistency between equivalent expressions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, ops


def small_arrays(shape=(3, 4)):
    return hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )


def grad_of(func, value: np.ndarray) -> np.ndarray:
    x = Tensor(value.copy(), requires_grad=True)
    out = func(x)
    out.backward(np.ones_like(out.data))
    return x.grad


class TestLinearity:
    @given(value=small_arrays(), a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_gradient_of_linear_combination(self, value, a, b):
        # d/dx sum(a*x + b*x) = (a+b) * ones
        grad = grad_of(lambda x: ops.add(ops.mul(x, a), ops.mul(x, b)), value)
        assert np.allclose(grad, a + b, atol=1e-6)

    @given(value=small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, value):
        grad = grad_of(lambda x: ops.sum(x), value)
        assert np.allclose(grad, 1.0)

    @given(value=small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_backward_additivity(self, value):
        # grad(f + g) == grad(f) + grad(g)
        f = lambda x: ops.mul(x, x)
        g = lambda x: ops.exp(ops.mul(x, 0.3))
        combined = grad_of(lambda x: ops.add(f(x), g(x)), value)
        separate = grad_of(f, value) + grad_of(g, value)
        assert np.allclose(combined, separate, atol=1e-6)


class TestChainRule:
    @given(value=small_arrays(shape=(5,)))
    @settings(max_examples=30, deadline=None)
    def test_exp_log_roundtrip_gradient(self, value):
        # d/dx log(exp(x)) = 1
        grad = grad_of(lambda x: ops.log(ops.exp(x)), value)
        assert np.allclose(grad, 1.0, atol=1e-5)

    @given(value=small_arrays(shape=(4,)))
    @settings(max_examples=30, deadline=None)
    def test_equivalent_expressions_same_gradient(self, value):
        # (x+1)^2 computed two ways.
        direct = grad_of(lambda x: ops.pow(ops.add(x, 1.0), 2.0), value)
        expanded = grad_of(
            lambda x: ops.add(ops.add(ops.mul(x, x), ops.mul(x, 2.0)), 1.0), value
        )
        assert np.allclose(direct, expanded, atol=1e-5)

    @given(value=small_arrays(shape=(3, 3)))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution_gradient(self, value):
        grad = grad_of(lambda x: ops.transpose(ops.transpose(x)), value)
        assert np.allclose(grad, 1.0)


class TestShapeInvariants:
    @given(value=small_arrays(shape=(2, 6)))
    @settings(max_examples=30, deadline=None)
    def test_reshape_roundtrip_gradient(self, value):
        grad = grad_of(
            lambda x: ops.reshape(ops.reshape(x, (12,)), (2, 6)), value
        )
        assert np.allclose(grad, 1.0)

    @given(value=small_arrays(shape=(3, 5)))
    @settings(max_examples=20, deadline=None)
    def test_softmax_gradient_rows_sum_to_zero(self, value):
        # softmax is shift-invariant ⇒ its Jacobian rows sum to 0, so with a
        # uniform output gradient the input gradient vanishes.
        grad = grad_of(lambda x: ops.softmax(x, axis=1), value)
        assert np.allclose(grad, 0.0, atol=1e-5)

    @given(value=small_arrays(shape=(3, 5)))
    @settings(max_examples=20, deadline=None)
    def test_log_softmax_shift_invariance(self, value):
        shifted = value + 7.3
        base = ops.log_softmax(Tensor(value), axis=1).data
        moved = ops.log_softmax(Tensor(shifted), axis=1).data
        assert np.allclose(base, moved, atol=1e-5)
