"""Losses: cross-entropy, BCE-with-logits, MSE — values and gradients."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck

RNG = np.random.default_rng(9)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = RNG.standard_normal((6, 4)).astype(np.float64)
        targets = RNG.integers(0, 4, 6)
        loss = nn.cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_uniform_logits_give_log_c(self):
        loss = nn.cross_entropy(Tensor(np.zeros((5, 10), dtype=np.float32)), np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-5)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 4), -50.0, dtype=np.float32)
        logits[np.arange(3), [0, 1, 2]] = 50.0
        loss = nn.cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert loss.item() < 1e-5

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1])
        gradcheck(lambda z: nn.cross_entropy(z, targets), [logits], atol=1e-4, rtol=1e-4)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(RNG.standard_normal((5, 3)).astype(np.float64), requires_grad=True)
        targets = np.array([0, 1, 2, 0, 1])
        loss = nn.cross_entropy(logits, targets)
        loss.backward()
        shifted = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        softmax = shifted / shifted.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[targets]
        assert np.allclose(logits.grad, (softmax - onehot) / 5, atol=1e-6)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            nn.cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="batch mismatch"):
            nn.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(5, dtype=int))

    def test_large_logits_stable(self):
        logits = Tensor(np.array([[1000.0, -1000.0]], dtype=np.float32))
        loss = nn.cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss.item())


class TestBCEWithLogits:
    def test_matches_manual(self):
        z = RNG.standard_normal(8).astype(np.float64)
        y = RNG.integers(0, 2, 8).astype(np.float64)
        loss = nn.binary_cross_entropy_with_logits(Tensor(z), Tensor(y))
        p = 1.0 / (1.0 + np.exp(-z))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_extreme_logits_stable(self):
        z = Tensor(np.array([1000.0, -1000.0], dtype=np.float32))
        y = Tensor(np.array([1.0, 0.0], dtype=np.float32))
        loss = nn.binary_cross_entropy_with_logits(z, y)
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-5

    def test_gradcheck(self):
        z = Tensor(RNG.standard_normal(6), requires_grad=True)
        y = Tensor((RNG.random(6) > 0.5).astype(np.float64))
        gradcheck(
            lambda logits: nn.binary_cross_entropy_with_logits(logits, y),
            [z], atol=1e-4, rtol=1e-4,
        )

    def test_chance_loss_log2(self):
        loss = nn.binary_cross_entropy_with_logits(
            Tensor(np.zeros(4, dtype=np.float32)), Tensor(np.array([0, 1, 0, 1], dtype=np.float32))
        )
        assert loss.item() == pytest.approx(np.log(2), rel=1e-5)
