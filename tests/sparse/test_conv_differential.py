"""Differential test: the sparse kernels against the dense layers.

Conv: random layer shapes, strides, paddings, block sizes, densities and
bias, with dense weight gradients required or not.  Each draw runs two
steps (the second at a new batch size half the time, reusing the cached
tap grid otherwise) and compares every result with
the dense conv of the masked weight.  The compiled serving layer built
from the same mask must match the training kernel's forward bitwise,
before and after an artifact round-trip.

Linear: block size 1 or 4, ``csr`` or ``bsr`` dispatch, dense weight
gradients required or not, and two forwards before one backward, against
the dense linear of the masked weight; the compiled layer must match the
training kernel's forward bitwise.
"""

import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.autograd import Tensor, conv2d, no_grad, ops
from repro.models import register_model
from repro.serve import export_model, load_model
from repro.sparse.inference import SparseConv2d, SparseLinear
from repro.sparse.kernels import Conv2dKernel, LinearKernel
from repro.sparse.masked import SparseParam

# Architecture of the artifact round-trip: one conv layer, as drawn.
register_model(
    "differential_conv",
    lambda c_in, c_out, kernel, stride, padding, bias: nn.Sequential(
        nn.Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, bias=bias)
    ),
)


@st.composite
def conv_cases(draw):
    block = draw(st.sampled_from([1, 4]))
    kernel = draw(st.sampled_from([1, 3]))
    padding = draw(st.sampled_from([0, 1]))
    lo = max(1, kernel - 2 * padding)
    return {
        "block": block,
        "c_in": block * draw(st.integers(1, 3)),
        "c_out": block * draw(st.integers(1, 3)),
        "h": draw(st.integers(lo, 9)),
        "w": draw(st.integers(lo, 9)),
        "kernel": kernel,
        "stride": draw(st.sampled_from([1, 2])),
        "padding": padding,
        "density": draw(st.floats(0.05, 1.0)),
        "dense_grads": draw(st.booleans()),
        "bias": draw(st.booleans()),
        "batches": draw(st.sampled_from([(2, 2), (2, 3)])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _block_mask(rng, shape, block, density):
    rows, cols = shape[0], int(np.prod(shape[1:]))
    tiles = rng.random((rows // block, cols // block)) < density
    return np.kron(tiles, np.ones((block, block), dtype=bool)).reshape(shape)


class TestConv2dKernelDifferential:
    @given(case=conv_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_conv_on_masked_weight(self, case):
        rng = np.random.default_rng(case["seed"])
        k, stride, padding = case["kernel"], case["stride"], case["padding"]
        layer = nn.Conv2d(
            case["c_in"], case["c_out"], k, stride=stride, padding=padding, bias=case["bias"], rng=rng
        )
        block = case["block"]
        mask = _block_mask(rng, layer.weight.shape, block, case["density"])
        layer.weight.data *= mask
        target = SparseParam("weight", layer.weight, mask, case["density"], block_size=block)
        target.dense_grads_required = case["dense_grads"]
        mode = "bsr" if block > 1 else "csr"
        layer.forward_backend = Conv2dKernel(layer, target, mode, min_size=1)
        compiled = SparseConv2d(layer, target)
        geometry = {key: case[key] for key in ("c_in", "c_out", "kernel", "stride", "padding")}
        loaded = self._round_trip(compiled, dict(geometry, bias=case["bias"]))

        for n in case["batches"]:
            x = rng.standard_normal((n, case["c_in"], case["h"], case["w"]))
            x = x.astype(np.float32)
            want = self._step(
                lambda t: conv2d(t, layer.weight, layer.bias, stride, padding), layer, x, rng
            )
            got = self._step(layer, layer, x, want[-1])
            self._compare(got, want, mask, tiles=block > 1 and not case["dense_grads"])
            with no_grad():
                served = compiled(Tensor(x)).data
            assert np.array_equal(served, got[0])
            assert np.array_equal(loaded.predict(x), got[0])
            np.testing.assert_allclose(served, want[0], rtol=1e-4, atol=1e-4)

    @staticmethod
    def _round_trip(compiled, kwargs):
        """``compiled`` exported and loaded back as a one-layer model."""
        config = {"builder": "differential_conv", "kwargs": kwargs}
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "layer.npz"
            export_model(nn.Sequential(compiled), path, model_config=config)
            return load_model(path)

    @given(
        block=st.sampled_from([1, 4]),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_compiled_linear_matches_dense(self, block, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Linear(block * cols, block * rows, rng=rng)
        layer.bias.data[:] = rng.standard_normal(block * rows)  # zero at init
        mask = _block_mask(rng, layer.weight.shape, block, density)
        layer.weight.data *= mask
        # An active weight that is exactly zero (regrown at the last update)
        # stays in the structure: the mask, not the values, decides.
        layer.weight.data.reshape(-1)[np.flatnonzero(mask)[:1]] = 0.0
        target = SparseParam("weight", layer.weight, mask, density, block_size=block)
        x = rng.standard_normal((3, block * cols)).astype(np.float32)
        compiled = SparseLinear(layer, target)
        kernel = LinearKernel(layer, target, "bsr" if block > 1 else "csr", min_size=1)
        with no_grad():
            want = layer(Tensor(x)).data
            got = compiled(Tensor(x)).data
            trained = kernel(Tensor(x)).data
        assert compiled.nnz == int(mask.sum())
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        assert np.array_equal(got, trained)

    @staticmethod
    def _step(forward, layer, x, upstream):
        """One step; ``upstream`` is the output gradient or an rng to draw it."""
        layer.zero_grad()
        inp = Tensor(x, requires_grad=True)
        out = forward(inp)
        if isinstance(upstream, np.random.Generator):
            upstream = upstream.standard_normal(out.shape).astype(np.float32)
        ops.sum(ops.mul(out, upstream)).backward()
        bias_grad = None if layer.bias is None else layer.bias.grad.copy()
        grads = (inp.grad.copy(), layer.weight.grad.copy(), bias_grad)
        return (out.data.copy(),) + grads + (upstream,)

    @staticmethod
    def _compare(got, want, mask, tiles):
        tol = {"rtol": 1e-4, "atol": 1e-4}
        np.testing.assert_allclose(got[0], want[0], **tol)
        np.testing.assert_allclose(got[1], want[1], **tol)
        if want[3] is not None:
            np.testing.assert_allclose(got[3], want[3], **tol)
        if tiles:
            np.testing.assert_allclose(got[2][mask], want[2][mask], **tol)
            assert not got[2][~mask].any()
        else:
            np.testing.assert_allclose(got[2], want[2], **tol)


@st.composite
def linear_cases(draw):
    block = draw(st.sampled_from([1, 4]))
    return {
        "block": block,
        "rows": block * draw(st.integers(1, 6)),
        "cols": block * draw(st.integers(1, 6)),
        "mode": draw(st.sampled_from(["csr", "bsr"])),
        "density": draw(st.floats(0.05, 1.0)),
        "dense_grads": draw(st.booleans()),
        "bias": draw(st.booleans()),
        "batches": draw(st.sampled_from([(3, 3), (2, 5)])),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestLinearKernelDifferential:
    @given(case=linear_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_linear_on_masked_weight(self, case):
        rng = np.random.default_rng(case["seed"])
        block = case["block"]
        layer = nn.Linear(case["cols"], case["rows"], bias=case["bias"], rng=rng)
        if case["bias"]:
            layer.bias.data[:] = rng.standard_normal(case["rows"])  # zero at init
        mask = _block_mask(rng, layer.weight.shape, block, case["density"])
        layer.weight.data *= mask
        target = SparseParam("weight", layer.weight, mask, case["density"], block_size=block)
        target.dense_grads_required = case["dense_grads"]
        # A density threshold of 1 keeps every draw on a sparse path; "bsr"
        # at B = 1 dispatches to "csr".
        kernel = LinearKernel(layer, target, case["mode"], density_threshold=1.0, min_size=1)
        assert kernel.backend() == ("bsr" if case["mode"] == "bsr" and block > 1 else "csr")
        xs = [rng.standard_normal((n, case["cols"])).astype(np.float32) for n in case["batches"]]
        upstreams = [rng.standard_normal((n, case["rows"])).astype(np.float32) for n in case["batches"]]

        want = self._step(layer, xs, upstreams)
        layer.forward_backend = kernel
        got = self._step(layer, xs, upstreams)
        tol = {"rtol": 1e-4, "atol": 1e-4}
        for name in ("outs", "input_grads"):
            for g, w in zip(got[name], want[name]):
                np.testing.assert_allclose(g, w, **tol)
        if case["bias"]:
            np.testing.assert_allclose(got["bias_grad"], want["bias_grad"], **tol)
        if kernel.backend() == "bsr" and not case["dense_grads"]:
            np.testing.assert_allclose(got["weight_grad"][mask], want["weight_grad"][mask], **tol)
            assert not got["weight_grad"][~mask].any()
        else:
            np.testing.assert_allclose(got["weight_grad"], want["weight_grad"], **tol)

    @staticmethod
    def _step(layer, xs, upstreams):
        """Two forwards, then one backward of both outputs."""
        layer.zero_grad()
        inputs = [Tensor(x, requires_grad=True) for x in xs]
        outs = [layer(inp) for inp in inputs]
        first, second = (ops.sum(ops.mul(out, u)) for out, u in zip(outs, upstreams))
        ops.add(first, second).backward()
        return {
            "outs": [out.data.copy() for out in outs],
            "input_grads": [inp.grad.copy() for inp in inputs],
            "weight_grad": layer.weight.grad.copy(),
            "bias_grad": None if layer.bias is None else layer.bias.grad.copy(),
        }
