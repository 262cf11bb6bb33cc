"""ConvWorkspace: cached-buffer conv pipeline must be bit-compatible."""

import numpy as np
import pytest

from repro import nn
from repro.autograd.conv import ConvWorkspace, conv2d
from repro.autograd.tensor import Tensor


def _case(seed=0, n=2, c_in=3, c_out=4, size=6, k=3, stride=1, padding=1,
          bias=True):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((n, c_in, size, size)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
               requires_grad=True)
    b = (Tensor(rng.standard_normal(c_out).astype(np.float32),
                requires_grad=True) if bias else None)
    return x, w, b, dict(stride=stride, padding=padding)


def _run(x, w, b, kwargs, workspace=None):
    out = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
    loss = (out * out).sum()
    loss.backward()
    grads = [x.grad.copy(), w.grad.copy()] + ([b.grad.copy()] if b is not None else [])
    data = out.data.copy()
    x.grad = w.grad = None
    if b is not None:
        b.grad = None
    return data, grads


class TestConvWorkspaceParity:
    @pytest.mark.parametrize("stride,padding,bias", [
        (1, 0, True), (1, 1, True), (2, 1, False), (1, 2, False), (2, 0, True),
    ])
    def test_forward_backward_match_no_workspace(self, stride, padding, bias):
        x, w, b, kwargs = _case(stride=stride, padding=padding, bias=bias)
        plain_out, plain_grads = _run(x, w, b, kwargs)
        ws_out, ws_grads = _run(x, w, b, kwargs, workspace=ConvWorkspace())
        np.testing.assert_allclose(plain_out, ws_out, atol=1e-5)
        for pg, wg in zip(plain_grads, ws_grads):
            np.testing.assert_allclose(pg, wg, atol=1e-4)

    def test_buffers_reused_across_steps(self):
        x, w, b, kwargs = _case()
        workspace = ConvWorkspace()
        out1 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        buffer_id = id(out1.data)
        out1.sum().backward()  # the step ends: its buffers are free again
        out2 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        assert id(out2.data) == buffer_id  # same cached buffer, overwritten

    def test_shape_change_reallocates(self):
        x, w, b, kwargs = _case(n=2)
        x_big, _, _, _ = _case(n=4)
        workspace = ConvWorkspace()
        out_small = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        out_big = conv2d(x_big, w, bias=b, workspace=workspace, **kwargs)
        assert out_small.data.shape[0] == 2
        assert out_big.data.shape[0] == 4
        reference = conv2d(x_big, w, bias=b, **kwargs)
        np.testing.assert_allclose(out_big.data, reference.data, atol=1e-5)

    def test_values_track_changing_inputs(self):
        # Reused buffers must hold the *current* step's values.
        x1, w, b, kwargs = _case(seed=1)
        x2, _, _, _ = _case(seed=2)
        workspace = ConvWorkspace()
        conv2d(x1, w, bias=b, workspace=workspace, **kwargs)
        out = conv2d(x2, w, bias=b, workspace=workspace, **kwargs)
        reference = conv2d(x2, w, bias=b, **kwargs)
        np.testing.assert_allclose(out.data, reference.data, atol=1e-5)

    def test_pending_backward_gets_fresh_buffers_until_graph_dies(self):
        x, w, b, kwargs = _case()
        workspace = ConvWorkspace()
        out1 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        buffer_id = id(out1.data)
        out2 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        assert id(out2.data) != buffer_id  # out1's backward is still pending
        del out1, out2  # abandoned without a backward
        out3 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        assert id(out3.data) == buffer_id  # reuse is back

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONV_WORKSPACE", "0")
        x, w, b, kwargs = _case()
        workspace = ConvWorkspace()
        out1 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        out2 = conv2d(x, w, bias=b, workspace=workspace, **kwargs)
        assert id(out1.data) != id(out2.data)  # caching disabled
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)

    def test_gradient_accumulation_without_zero_grad(self):
        # Pending-accumulation guard: two backwards without clearing must
        # sum, not alias the same cached buffer.
        x, w, b, kwargs = _case(bias=False)
        workspace = ConvWorkspace()
        out = conv2d(x, w, workspace=workspace, **kwargs)
        (out * out).sum().backward()
        first_w = w.grad.copy()
        first_x = x.grad.copy()
        out = conv2d(x, w, workspace=workspace, **kwargs)
        (out * out).sum().backward()
        np.testing.assert_allclose(w.grad, 2 * first_w, rtol=1e-5)
        np.testing.assert_allclose(x.grad, 2 * first_x, rtol=1e-5)


class TestConv2dModuleWorkspace:
    def test_module_owns_workspace_and_matches_functional(self):
        rng = np.random.default_rng(0)
        layer = nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(1))
        assert isinstance(layer.workspace, ConvWorkspace)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        expected = conv2d(x, layer.weight, bias=layer.bias, stride=1, padding=1)
        for _ in range(2):  # second call goes through warm buffers
            out = layer(x)
            np.testing.assert_allclose(out.data, expected.data, atol=1e-5)

    def test_training_step_parity_with_workspace_disabled(self, monkeypatch):
        # One full conv training step with cached buffers must match the
        # same step computed with per-call allocation.
        def one_step(enabled: bool):
            monkeypatch.setenv("REPRO_CONV_WORKSPACE", "1" if enabled else "0")
            rng = np.random.default_rng(5)
            model = nn.Sequential(
                nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(1)),
                nn.ReLU(),
                nn.Conv2d(8, 4, 3, padding=1, rng=np.random.default_rng(2)),
            )
            x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
            out = model(x)
            out.sum().backward()
            return out.data.copy(), [p.grad.copy() for p in model.parameters()]

        out_on, grads_on = one_step(True)
        out_off, grads_off = one_step(False)
        np.testing.assert_allclose(out_on, out_off, atol=1e-6)
        for on, off in zip(grads_on, grads_off):
            np.testing.assert_allclose(on, off, atol=1e-5)
