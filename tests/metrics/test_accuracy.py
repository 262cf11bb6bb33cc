"""Accuracy metrics."""

import numpy as np

from repro.autograd import Tensor
from repro.metrics import accuracy, binary_accuracy, topk_accuracy


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4) * 10
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_all_wrong(self):
        logits = np.zeros((3, 2))
        logits[:, 0] = 1.0
        assert accuracy(logits, np.ones(3, dtype=int)) == 0.0

    def test_accepts_tensor(self):
        logits = Tensor(np.eye(3, dtype=np.float32))
        assert accuracy(logits, np.arange(3)) == 1.0

    def test_partial(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_one_dimensional_logits_are_binary_at_zero(self):
        logits = np.array([2.0, -1.0, 0.5, -0.2], dtype=np.float32)
        labels = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        assert accuracy(logits, labels) == binary_accuracy(logits, labels) == 0.75


class TestTopK:
    def test_topk_hits(self):
        logits = np.array([[5.0, 4.0, 0.0, 0.0]])
        assert topk_accuracy(logits, np.array([1]), k=2) == 1.0
        assert topk_accuracy(logits, np.array([2]), k=2) == 0.0

    def test_k_ge_classes_is_one(self):
        logits = np.zeros((2, 3))
        assert topk_accuracy(logits, np.array([0, 2]), k=5) == 1.0


class TestBinary:
    def test_threshold_zero(self):
        logits = np.array([2.0, -1.0, 0.5, -0.5])
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        assert binary_accuracy(logits, targets) == 1.0

    def test_half_right(self):
        logits = np.array([1.0, 1.0])
        targets = np.array([1.0, 0.0])
        assert binary_accuracy(logits, targets) == 0.5

    def test_custom_threshold(self):
        logits = np.array([0.4, 0.6])
        targets = np.array([0.0, 1.0])
        assert binary_accuracy(logits, targets, threshold=0.5) == 1.0
