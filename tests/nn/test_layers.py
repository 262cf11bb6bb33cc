"""Linear / Conv2d / pooling layer behaviour."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, ops


RNG = np.random.default_rng(3)


class TestLinear:
    def test_forward_matches_manual(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = RNG.standard_normal((5, 4)).astype(np.float32)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_weight_shape_out_in(self):
        layer = nn.Linear(7, 2, rng=np.random.default_rng(0))
        assert layer.weight.shape == (2, 7)

    def test_gradients_flow(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((4, 3), dtype=np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert np.allclose(layer.bias.grad, 4.0)

    def test_repr(self):
        assert "Linear(in=3, out=2" in repr(nn.Linear(3, 2))


def _composed_linear(x, weight, bias):
    """The Linear graph before it became one node, kept as the oracle."""
    out = ops.matmul(x, ops.transpose(weight))
    return out if bias is None else ops.add(out, bias)


class TestLinearNode:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize(
        "n, d_in, d_out", [(1024, 64, 64), (1024, 64, 65), (7, 5, 3), (64, 128, 20)]
    )
    def test_bitwise_matches_composed_oracle(self, n, d_in, d_out, bias):
        rng = np.random.default_rng(n + d_out)
        x_data = rng.standard_normal((n, d_in)).astype(np.float32)
        w_data = rng.standard_normal((d_out, d_in)).astype(np.float32)
        b_data = rng.standard_normal(d_out).astype(np.float32)
        upstream = rng.standard_normal((n, d_out)).astype(np.float32)
        results = []
        for forward in (ops.linear, _composed_linear):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True) if bias else None
            out = forward(x, w, b)
            out.backward(upstream)
            results.append([out.data, x.grad, w.grad] + ([b.grad] if bias else []))
        for fused, composed in zip(*results):
            assert fused.dtype == np.float32
            np.testing.assert_array_equal(fused, composed)
        assert results[0][2].flags.c_contiguous  # weight gradient

    @pytest.mark.parametrize("bias", [True, False])
    def test_forward_records_one_graph_node(self, bias):
        layer = nn.Linear(8, 4, bias=bias, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        out = layer(x)
        assert out._parents == tuple(p for p in (x, layer.weight, layer.bias) if p is not None)
        assert all(parent._backward is None for parent in out._parents)

    @pytest.mark.parametrize("bias", [True, False])
    def test_batched_input_matches_composed_oracle(self, bias):
        rng = np.random.default_rng(5)
        x_data = rng.standard_normal((2, 3, 8)).astype(np.float32)
        w_data = rng.standard_normal((4, 8)).astype(np.float32)
        b_data = rng.standard_normal(4).astype(np.float32)
        upstream = rng.standard_normal((2, 3, 4)).astype(np.float32)
        results = []
        for forward in (ops.linear, _composed_linear):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True) if bias else None
            out = forward(x, w, b)
            out.backward(upstream)
            results.append([out.data, x.grad, w.grad] + ([b.grad] if bias else []))
        for fused, composed in zip(*results):
            assert fused.shape == composed.shape
            np.testing.assert_allclose(fused, composed, rtol=1e-5, atol=1e-5)


class TestConv2d:
    def test_forward_shape(self):
        layer = nn.Conv2d(3, 8, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 3, 6, 6), dtype=np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_no_bias_param_count(self):
        layer = nn.Conv2d(3, 8, 3, bias=False)
        assert len(list(layer.parameters())) == 1

    def test_rectangular_kernel(self):
        layer = nn.Conv2d(1, 1, (1, 3), padding=(0, 1), rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 1, 4, 4)

    def test_gradients_flow(self):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        out = layer(Tensor(RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.shape


class TestPooling:
    def test_max_pool_module(self):
        out = nn.MaxPool2d(2)(Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4)))
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 1, 1] == 15.0

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 5, 5), dtype=np.float32) * 2.0)
        out = nn.GlobalAvgPool2d()(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 2.0)


class TestActivationModules:
    def test_relu(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0], dtype=np.float32)))
        assert np.allclose(out.data, [0.0, 2.0])
