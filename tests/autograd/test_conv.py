"""Convolution and pooling: shapes, known values, gradchecks, buffer lifetime."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck
from repro.autograd.conv import avg_pool2d, conv2d, conv_output_size, max_pool2d, pad2d
from repro.optim import SGD
from repro.sparse import MaskedModel, install_training_backends

RNG = np.random.default_rng(7)


def t64(array):
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)


class TestOutputSizes:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(8, 3, 1, 1, 8), (8, 3, 2, 1, 4), (7, 3, 1, 0, 5), (4, 2, 2, 0, 2), (5, 5, 1, 2, 5)],
    )
    def test_conv_output_size(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    def test_conv2d_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((5, 3, 3, 3), dtype=np.float32))
        assert conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(x, w)


class TestKnownValues:
    def test_identity_kernel(self):
        x = RNG.standard_normal((1, 1, 5, 5)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0  # delta kernel = identity with padding 1
        out = conv2d(Tensor(x), Tensor(w), padding=1)
        assert np.allclose(out.data, x, atol=1e-6)

    def test_averaging_kernel(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        w = np.full((1, 1, 2, 2), 0.25, dtype=np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=2)
        assert np.allclose(out.data, 1.0, atol=1e-6)

    def test_multichannel_sums_channels(self):
        x = np.ones((1, 3, 2, 2), dtype=np.float32)
        w = np.ones((1, 3, 1, 1), dtype=np.float32)
        out = conv2d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, 3.0)

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((2, 1, 1, 1), dtype=np.float32)
        b = np.array([1.0, -2.0], dtype=np.float32)
        out = conv2d(Tensor(x), Tensor(w), bias=Tensor(b))
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_matches_scipy_correlate(self):
        from scipy import ndimage

        x = RNG.standard_normal((1, 1, 6, 6))
        w = RNG.standard_normal((1, 1, 3, 3))
        out = conv2d(t64(x), t64(w), padding=1).data[0, 0]
        expected = ndimage.correlate(x[0, 0], w[0, 0], mode="constant")
        assert np.allclose(out, expected, atol=1e-6)

    def test_max_pool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = max_pool2d(Tensor(x), 2)
        assert out.data[0, 0, 0, 0] == pytest.approx(4.0)

    def test_avg_pool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = avg_pool2d(Tensor(x), 2)
        assert out.data[0, 0, 0, 0] == pytest.approx(2.5)

    def test_pad2d_values(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = pad2d(x, 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 1] == 1.0


class TestGradients:
    def test_conv2d_gradcheck(self):
        x = t64(RNG.standard_normal((2, 2, 5, 5)))
        w = t64(RNG.standard_normal((3, 2, 3, 3)) * 0.5)
        b = t64(RNG.standard_normal(3))
        gradcheck(
            lambda xx, ww, bb: conv2d(xx, ww, bias=bb, stride=1, padding=1),
            [x, w, b], atol=1e-3, rtol=1e-3,
        )

    def test_conv2d_strided_gradcheck(self):
        x = t64(RNG.standard_normal((1, 2, 6, 6)))
        w = t64(RNG.standard_normal((2, 2, 3, 3)) * 0.5)
        gradcheck(
            lambda xx, ww: conv2d(xx, ww, stride=2, padding=1),
            [x, w], atol=1e-3, rtol=1e-3,
        )

    def test_max_pool_gradcheck(self):
        # Distinct values → unique argmax, differentiable point.
        values = RNG.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        gradcheck(lambda x: max_pool2d(x, 2), [t64(values)], atol=1e-4, rtol=1e-4)

    def test_max_pool_overlapping_gradcheck(self):
        values = RNG.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        gradcheck(lambda x: max_pool2d(x, 3, stride=1), [t64(values)], atol=1e-4, rtol=1e-4)

    def test_avg_pool_gradcheck(self):
        x = t64(RNG.standard_normal((2, 2, 4, 4)))
        gradcheck(lambda v: avg_pool2d(v, 2), [x], atol=1e-4, rtol=1e-4)

    def test_pad2d_gradcheck(self):
        x = t64(RNG.standard_normal((1, 2, 3, 3)))
        gradcheck(lambda v: pad2d(v, 2), [x], atol=1e-6, rtol=1e-6)

    def test_max_pool_routes_gradient_to_argmax(self):
        x = Tensor(
            np.array([[[[1.0, 5.0], [2.0, 3.0]]]], dtype=np.float32), requires_grad=True
        )
        out = max_pool2d(x, 2)
        out.backward(np.ones_like(out.data))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 1] = 1.0
        assert np.allclose(x.grad, expected)


def _case(seed=0, n=2, c_in=3, c_out=4, size=6, k=3, bias=True):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((n, c_in, size, size)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(c_out).astype(np.float32), requires_grad=True) if bias else None
    return x, w, b


def _direct_conv(x, w, b, stride, padding):
    """Float64 reference: one strided slice-product per kernel tap."""
    x = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    c_out, _, kh, kw = w.shape
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], c_out, out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            window = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            out += np.einsum("nchw,oc->nohw", window, w[:, :, i, j].astype(np.float64))
    return out if b is None else out + b.reshape(1, -1, 1, 1)


class TestConvOutput:
    @pytest.mark.parametrize(
        "stride,padding,bias",
        [(1, 0, True), (1, 1, True), (2, 1, False), (1, 2, False), (2, 0, True)],
    )
    def test_contiguous_and_matches_direct_conv(self, stride, padding, bias):
        x, w, b = _case(bias=bias)
        out = conv2d(x, w, bias=b, stride=stride, padding=padding)
        assert out.data.flags.c_contiguous
        want = _direct_conv(x.data, w.data, None if b is None else b.data, stride, padding)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)

    def test_values_track_changing_inputs(self):
        x1, _, _ = _case(seed=1)
        x2, _, _ = _case(seed=2)
        layer = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        first = layer(x1)
        kept = first.data.copy()
        second = layer(x2)
        np.testing.assert_array_equal(first.data, kept)  # not overwritten
        reference = conv2d(x2, layer.weight, bias=layer.bias, padding=1)
        np.testing.assert_array_equal(second.data, reference.data)

    def test_gradient_accumulation_without_zero_grad(self):
        x, w, _ = _case(bias=False)
        out = conv2d(x, w, padding=1)
        (out * out).sum().backward()
        first_w, first_x = w.grad.copy(), x.grad.copy()
        out = conv2d(x, w, padding=1)
        (out * out).sum().backward()
        np.testing.assert_allclose(w.grad, 2 * first_w, rtol=1e-5)
        np.testing.assert_allclose(x.grad, 2 * first_x, rtol=1e-5)

    def test_module_matches_functional(self):
        layer = nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 6, 6)).astype(np.float32))
        expected = conv2d(x, layer.weight, bias=layer.bias, stride=1, padding=1)
        for _ in range(2):
            np.testing.assert_array_equal(layer(x).data, expected.data)


class TestBufferLifetime:
    """A conv layer keeps no step-sized array once its graph and grads die."""

    # Bytes of the im2col matrix of the layer below: (16*12*12, 8*3*3) float32.
    IM2COL_BYTES = 16 * 12 * 12 * 8 * 3 * 3 * 4  # 663,552

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_nothing_retained_after_steps(self, backend):
        layer = nn.Conv2d(8, 16, 3, padding=1, rng=np.random.default_rng(0))
        if backend != "dense":
            masked = MaskedModel(layer, 0.9, distribution="uniform", rng=np.random.default_rng(1))
            install_training_backends(masked, mode=backend, min_size=1)
            assert layer.forward_backend is not None
        optimizer = SGD(layer.parameters(), lr=0.01)
        data = np.random.default_rng(2).standard_normal((16, 8, 12, 12)).astype(np.float32)
        # The input needs a gradient, as it does behind any earlier layer.
        x = Tensor(data, requires_grad=True)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(2):
                optimizer.zero_grad()
                x.zero_grad()
                out = layer(x)
                loss = (out * out).mean()
                loss.backward()
                optimizer.step()
            del out, loss
            optimizer.zero_grad()
            x.zero_grad()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < self.IM2COL_BYTES
