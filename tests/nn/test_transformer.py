"""Transformer primitives: causal masking, the fused LayerNorm and GELU
nodes against their composed formulas, embedding sparse-row gradients, and
the left-pad serving contract of CharGPT."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck, no_grad, ops
from repro.models import CharGPT
from repro.nn.losses import cross_entropy, lm_cross_entropy

RNG = np.random.default_rng(0)

DTYPES = [np.float32, np.float64]


def _const(value, dtype):
    """A constant in ``dtype``: a Python float would become float32."""
    return np.asarray(value, dtype=dtype)


def _composed_gelu(x):
    """The GELU graph before it was fused, kept as the oracle."""
    c, s = _const(0.044715, x.dtype), _const(np.sqrt(2.0 / np.pi), x.dtype)
    cubic = ops.add(x, ops.mul(c, ops.pow(x, 3.0)))
    gate = ops.add(_const(1.0, x.dtype), ops.tanh(ops.mul(s, cubic)))
    return ops.mul(ops.mul(_const(0.5, x.dtype), x), gate)


def _composed_layer_norm(x, gamma, beta, eps):
    """The LayerNorm graph before it was fused, kept as the oracle."""
    mean = ops.mean(x, axis=-1, keepdims=True)
    var = ops.var(x, axis=-1, keepdims=True)
    x_hat = ops.div(ops.sub(x, mean), ops.sqrt(ops.add(var, _const(eps, x.dtype))))
    return ops.add(ops.mul(x_hat, gamma), beta)


def _graph_nodes(out):
    """Number of op nodes recorded between ``out`` and its leaves."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _accumulated_dtypes(monkeypatch):
    """Record the dtype of every gradient handed to ``Tensor._accumulate``
    (which casts to the parameter's dtype, so ``.grad`` alone would hide a
    float64 promotion inside a backward)."""
    seen = []
    accumulate = Tensor._accumulate

    def spy(self, grad):
        seen.append(grad.dtype)
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    return seen


def _tiny_gpt(**overrides):
    kwargs = dict(
        vocab_size=16, block_len=8, n_layer=1, n_head=2, n_embd=8, seed=0
    )
    kwargs.update(overrides)
    return CharGPT(**kwargs)


class TestCausalMask:
    def test_future_tokens_cannot_influence_past_positions(self):
        """Perturbing token t must leave logits at positions < t bitwise
        unchanged: the additive -1e9 mask underflows to exactly zero
        attention weight, so a changed future value contributes 0.0 * v."""
        model = _tiny_gpt()
        idx = RNG.integers(1, 16, size=(2, 8))
        logits_a = model(idx).data.reshape(2, 8, 16)
        perturbed = idx.copy()
        perturbed[:, -1] = (perturbed[:, -1] % 15) + 1  # different final token
        assert not np.array_equal(perturbed[:, -1], idx[:, -1])
        logits_b = model(perturbed).data.reshape(2, 8, 16)
        np.testing.assert_array_equal(logits_a[:, :-1], logits_b[:, :-1])
        assert not np.array_equal(logits_a[:, -1], logits_b[:, -1])

    def test_mid_sequence_perturbation_localized_to_suffix(self):
        model = _tiny_gpt()
        idx = RNG.integers(1, 16, size=(1, 8))
        perturbed = idx.copy()
        perturbed[0, 3] = (perturbed[0, 3] % 15) + 1
        logits_a = model(idx).data.reshape(8, 16)
        logits_b = model(perturbed).data.reshape(8, 16)
        np.testing.assert_array_equal(logits_a[:3], logits_b[:3])
        assert not np.array_equal(logits_a[3:], logits_b[3:])

    def test_attention_rejects_overlong_sequence(self):
        attn = nn.CausalSelfAttention(8, 2, max_len=4)
        x = Tensor(RNG.standard_normal((10, 8)).astype(np.float32))
        with pytest.raises(ValueError, match="exceeds max_len"):
            attn(x, batch=2, seq=5)


class TestLayerNorm:
    def test_backward_matches_numerical_gradients(self):
        """Gradients flow through the mean/var statistics exactly."""
        layer = nn.LayerNorm(6)
        layer.weight.data = RNG.standard_normal(6) + 1.0
        layer.bias.data = RNG.standard_normal(6)
        x = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        gradcheck(
            lambda inp, w, b: layer(inp),
            [x, layer.weight, layer.bias],
            atol=1e-5,
            rtol=1e-4,
        )

    def test_normalizes_per_example(self):
        layer = nn.LayerNorm(32)
        x = Tensor((RNG.standard_normal((5, 32)) * 3 + 7).astype(np.float32))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_train_and_eval_identical(self):
        layer = nn.LayerNorm(8)
        x = Tensor(RNG.standard_normal((3, 8)).astype(np.float32))
        train_out = layer(x).data.copy()
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, train_out)

    def test_trailing_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="trailing dim"):
            nn.LayerNorm(8)(Tensor(np.zeros((2, 4), np.float32)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(16, 8), (3, 5, 8)])
    def test_matches_composed_oracle(self, dtype, shape):
        layer = nn.LayerNorm(8)
        layer.weight.data = (RNG.standard_normal(8) + 1.0).astype(dtype)
        layer.bias.data = RNG.standard_normal(8).astype(dtype)
        x_data = (RNG.standard_normal(shape) * 3.0 + 2.0).astype(dtype)
        upstream = RNG.standard_normal(shape).astype(dtype)
        results = []
        for forward in (
            lambda x: layer(x),
            lambda x: _composed_layer_norm(x, layer.weight, layer.bias, layer.eps),
        ):
            layer.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            out = forward(x)
            out.backward(upstream)
            results.append((out.data, x.grad, layer.weight.grad, layer.bias.grad))
        tol = dict(rtol=1e-4, atol=2e-5) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-12)
        for fused, composed in zip(*results):
            assert fused.dtype == dtype
            np.testing.assert_allclose(fused, composed, **tol)

    def test_float32_stays_float32(self, monkeypatch):
        layer = nn.LayerNorm(8)
        x = Tensor(RNG.standard_normal((3, 4, 8)).astype(np.float32), requires_grad=True)
        seen = _accumulated_dtypes(monkeypatch)
        out = layer(x)
        out.backward(np.ones_like(out.data))
        assert out.dtype == np.float32
        assert len(seen) == 4  # upstream, x, gamma, beta
        assert set(seen) == {np.dtype(np.float32)}

    def test_forward_records_one_graph_node(self):
        layer = nn.LayerNorm(8)
        x = Tensor(RNG.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
        out = layer(x)
        assert out._parents == (x, layer.weight, layer.bias)
        assert _graph_nodes(out) == 1


class TestEmbedding:
    def test_gradient_is_sparse_by_row(self):
        """Only rows the batch indexes receive gradient; repeats sum."""
        emb = nn.Embedding(10, 4, rng=np.random.default_rng(3))
        out = emb(np.array([1, 3, 3]))
        out.backward(np.ones_like(out.data))
        grad = emb.weight.grad
        np.testing.assert_array_equal(grad[1], np.ones(4, np.float32))
        np.testing.assert_array_equal(grad[3], 2 * np.ones(4, np.float32))
        untouched = np.delete(np.arange(10), [1, 3])
        assert not grad[untouched].any()

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([4, 1, 4, 4, 0, 1]),  # repeated ids
            np.full(1100, 2),  # one segment over 1000 rows long
            np.broadcast_to(np.arange(8), (5, 8)),  # broadcast position ids
            np.zeros(0, np.int64),  # empty index
            RNG.integers(0, 65, size=(32, 32)),  # a char-GPT batch
        ],
    )
    def test_gradient_bitwise_matches_add_at(self, ids):
        rng = np.random.default_rng(ids.size)
        emb = nn.Embedding(65, 16, rng=rng)
        upstream = rng.standard_normal(ids.shape + (16,)).astype(np.float32)
        upstream[..., 0] = -0.0  # signed zeros must sum as np.add.at does
        out = emb(ids)
        out.backward(upstream)
        reference = np.zeros_like(emb.weight.data)
        np.add.at(reference, ids, upstream)
        np.testing.assert_array_equal(out.data, emb.weight.data[ids])
        np.testing.assert_array_equal(emb.weight.grad, reference)
        np.testing.assert_array_equal(np.signbit(emb.weight.grad), np.signbit(reference))

    def test_forward_records_one_graph_node(self):
        emb = nn.Embedding(10, 4)
        out = emb(np.array([[1, 2], [3, 1]]))
        assert out._parents == (emb.weight,)
        assert _graph_nodes(out) == 1

    def test_output_shape_follows_indices(self):
        emb = nn.Embedding(6, 3)
        assert emb(np.zeros((2, 5), np.int64)).shape == (2, 5, 3)

    def test_rejects_non_integer_and_out_of_range(self):
        emb = nn.Embedding(6, 3)
        with pytest.raises(TypeError, match="integers"):
            emb(np.zeros(3, np.float32))
        with pytest.raises(IndexError, match="embedding ids"):
            emb(np.array([0, 6]))

    @pytest.mark.parametrize("ids", [np.array([0, -1]), np.array([[2, 6]]), np.array([-7])])
    def test_op_rejects_out_of_range_ids(self, ids):
        """A negative id would alias a positive one in the forward but land
        in its own segment in the backward, so the op itself rejects it."""
        weight = Tensor(np.zeros((6, 3), np.float32), requires_grad=True)
        with pytest.raises(IndexError, match="embedding ids"):
            ops.embedding(weight, ids)


class TestLeftPadContract:
    def test_left_padded_prompt_matches_unpadded_argmax(self):
        """The serving preprocessor always left-pads to max_length; the
        padded forward must pick the same greedy next token."""
        model = _tiny_gpt(head="last", pad_id=0)
        prompt = RNG.integers(1, 16, size=(1, 5))
        padded = np.zeros((1, 8), dtype=np.int64)
        padded[:, 3:] = prompt
        unpadded_logits = model(prompt).data
        padded_logits = model(padded).data
        np.testing.assert_allclose(unpadded_logits, padded_logits, atol=1e-4)
        assert int(unpadded_logits.argmax()) == int(padded_logits.argmax())

    def test_pad_must_form_left_prefix(self):
        model = _tiny_gpt(head="last", pad_id=0)
        bad = RNG.integers(1, 16, size=(1, 8))
        bad[0, 4] = 0  # pad token in the middle of real tokens
        with pytest.raises(ValueError, match="left prefix"):
            model(bad)

    def test_last_head_returns_one_row_per_example(self):
        model = _tiny_gpt(head="last")
        assert model(RNG.integers(1, 16, size=(3, 8))).shape == (3, 16)

    def test_invalid_head_and_pad_id_rejected(self):
        with pytest.raises(ValueError, match="head"):
            _tiny_gpt(head="middle")
        with pytest.raises(ValueError, match="pad_id"):
            _tiny_gpt(pad_id=16)


class TestLMCrossEntropy:
    def test_ignore_index_excludes_positions(self):
        logits = Tensor(RNG.standard_normal((6, 5)).astype(np.float32))
        targets = np.array([1, -1, 2, -1, 0, 4])
        valid = targets != -1
        full = lm_cross_entropy(logits, targets)
        subset = cross_entropy(
            Tensor(logits.data[valid]), targets[valid]
        )
        np.testing.assert_allclose(float(full.data), float(subset.data), rtol=1e-6)

    def test_no_gradient_at_ignored_positions(self):
        logits = Tensor(
            RNG.standard_normal((4, 5)).astype(np.float32), requires_grad=True
        )
        loss = lm_cross_entropy(logits, np.array([1, -1, 2, -1]))
        loss.backward()
        assert not logits.grad[1].any()
        assert not logits.grad[3].any()
        assert logits.grad[0].any()

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((2, 3), np.float32))
        with pytest.raises(ValueError, match="ignore_index"):
            lm_cross_entropy(logits, np.array([-1, -1]))


class TestGELU:
    def test_matches_tanh_approximation(self):
        x = np.linspace(-3, 3, 31, dtype=np.float32)
        out = nn.GELU()(Tensor(x)).data
        expected = (
            0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        )
        np.testing.assert_allclose(out, expected, atol=1e-5)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_composed_oracle(self, dtype):
        x_data = (RNG.standard_normal((64, 32)) * 2.0).astype(dtype)
        upstream = RNG.standard_normal((64, 32)).astype(dtype)
        results = []
        for forward in (nn.GELU(), _composed_gelu):
            x = Tensor(x_data, requires_grad=True)
            out = forward(x)
            out.backward(upstream)
            results.append((out.data, x.grad))
        (fused_out, fused_grad), (composed_out, composed_grad) = results
        assert fused_out.dtype == dtype and fused_grad.dtype == dtype
        if dtype == np.float32:
            np.testing.assert_allclose(fused_out, composed_out, rtol=1e-6, atol=5e-7)
            np.testing.assert_allclose(fused_grad, composed_grad, rtol=1e-5, atol=2e-6)
        else:
            np.testing.assert_allclose(fused_out, composed_out, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(fused_grad, composed_grad, rtol=1e-12, atol=1e-14)

    def test_float32_stays_float32(self, monkeypatch):
        x = Tensor(RNG.standard_normal((4, 16)).astype(np.float32), requires_grad=True)
        seen = _accumulated_dtypes(monkeypatch)
        out = nn.GELU()(x)
        out.backward(np.ones_like(out.data))
        assert out.dtype == np.float32
        assert seen == [np.dtype(np.float32)] * 2  # upstream, x

    def test_forward_records_one_graph_node(self):
        x = Tensor(RNG.standard_normal((4, 16)).astype(np.float32), requires_grad=True)
        out = nn.GELU()(x)
        assert out._parents == (x,)
        assert _graph_nodes(out) == 1

    def test_no_grad_saves_no_derivative(self):
        """The recorded forward computes one derivative array and keeps it
        alive next to its output; under ``no_grad`` the derivative is
        neither kept nor computed (the peak is one array lower)."""
        x = Tensor(RNG.standard_normal((256, 256)).astype(np.float32), requires_grad=True)
        act = nn.GELU()

        def traced_call():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = act(x)
                current, peak = tracemalloc.get_traced_memory()
                return out, current - before, peak - before
            finally:
                tracemalloc.stop()

        with no_grad():
            out, plain_kept, plain_peak = traced_call()
        assert out._backward is None
        out, recorded_kept, recorded_peak = traced_call()
        assert out._backward is not None
        nbytes = x.data.nbytes
        assert plain_kept < 1.5 * nbytes
        assert recorded_kept > 1.9 * nbytes
        assert plain_peak < recorded_peak - 0.5 * nbytes
