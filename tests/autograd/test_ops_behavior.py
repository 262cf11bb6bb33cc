"""Forward-value and error-handling behaviour of the primitive ops."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import ops


class TestForwardValues:
    def test_add_broadcasting_shape(self):
        out = ops.add(Tensor(np.zeros((3, 1))), Tensor(np.zeros((1, 4))))
        assert out.shape == (3, 4)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 7)))
        s = ops.softmax(x, axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(s.data >= 0)

    def test_softmax_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        s = ops.softmax(x, axis=1)
        assert np.isfinite(s.data).all()
        assert s.data[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).standard_normal((4, 6)))
        direct = ops.log_softmax(x, axis=1).data
        indirect = np.log(ops.softmax(x, axis=1).data)
        assert np.allclose(direct, indirect, atol=1e-6)

    def test_sigmoid_extreme_values_finite(self):
        x = Tensor(np.array([-500.0, 0.0, 500.0]))
        s = ops.sigmoid(x)
        assert np.isfinite(s.data).all()
        assert s.data[0] == pytest.approx(0.0, abs=1e-6)
        assert s.data[1] == pytest.approx(0.5, abs=1e-6)
        assert s.data[2] == pytest.approx(1.0, abs=1e-6)

    def test_where_selects(self):
        out = ops.where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        ops.max(x).backward(np.ones(()))
        assert x.grad == pytest.approx([0.5, 0.5, 0.0])

    def test_getitem_duplicate_indices_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([1, 1, 2])
        y = ops.getitem(x, idx)
        ops.sum(y).backward()
        assert x.grad == pytest.approx([0.0, 2.0, 1.0])

    def test_var_biased_estimator(self):
        x = Tensor(np.array([1.0, 3.0]))
        assert ops.var(x).item() == pytest.approx(1.0)  # population variance


class TestErrors:
    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="ndim"):
            ops.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ops.pow(Tensor([2.0]), Tensor([2.0]))


class TestUnbroadcast:
    def test_scalar_plus_matrix_gradient_shapes(self):
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.add(a, b)
        out.backward(np.ones((2, 3)))
        assert a.grad.shape == ()
        assert float(a.grad) == pytest.approx(6.0)
        assert b.grad.shape == (2, 3)

    def test_row_vector_gradient_sums_over_rows(self):
        row = Tensor(np.ones((1, 4)), requires_grad=True)
        mat = Tensor(np.ones((3, 4)))
        ops.mul(row, mat).backward(np.ones((3, 4)))
        assert row.grad.shape == (1, 4)
        assert np.allclose(row.grad, 3.0)
