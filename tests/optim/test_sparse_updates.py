"""Sparse coordinate updates: parity with the dense step on active weights."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.optim import SGD, Adam


def make_pair(shape=(10, 8), seed=0):
    """Two identical parameters, one to be updated densely, one sparsely."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(np.float32)
    mask = rng.random(shape) < 0.3
    data *= mask
    dense_p = Tensor(data.copy(), requires_grad=True)
    sparse_p = Tensor(data.copy(), requires_grad=True)
    indices = np.flatnonzero(mask.reshape(-1))
    return dense_p, sparse_p, mask, indices, rng


def masked_grad(rng, mask):
    grad = rng.standard_normal(mask.shape).astype(np.float32)
    return grad * mask


def bind(optimizer, param, indices):
    optimizer.bind_sparse_indices({id(param): lambda: indices})


@pytest.mark.parametrize("momentum,weight_decay,nesterov", [
    (0.0, 0.0, False),
    (0.9, 0.0, False),
    (0.9, 5e-4, False),
    (0.9, 5e-4, True),
])
def test_sgd_sparse_matches_dense_on_active(momentum, weight_decay, nesterov):
    dense_p, sparse_p, mask, indices, rng = make_pair()
    dense_opt = SGD([dense_p], lr=0.1, momentum=momentum,
                    weight_decay=weight_decay, nesterov=nesterov)
    sparse_opt = SGD([sparse_p], lr=0.1, momentum=momentum,
                     weight_decay=weight_decay, nesterov=nesterov)
    bind(sparse_opt, sparse_p, indices)
    for _ in range(5):
        grad = masked_grad(rng, mask)
        dense_p.grad = grad.copy()
        sparse_p.grad = grad.copy()
        dense_opt.step()
        sparse_opt.step()
        np.testing.assert_allclose(
            sparse_p.data[mask], dense_p.data[mask], atol=1e-6
        )
        # The sparse path must leave inactive weights exactly zero.
        assert np.all(sparse_p.data[~mask] == 0.0)
    if momentum:
        dense_v = dense_opt.state_for(dense_p)["momentum"]
        sparse_v = sparse_opt.expanded_state(sparse_p)["momentum"]
        np.testing.assert_allclose(sparse_v[mask], dense_v[mask], atol=1e-6)


def test_adam_sparse_matches_dense_on_active():
    dense_p, sparse_p, mask, indices, rng = make_pair(seed=3)
    dense_opt = Adam([dense_p], lr=0.01)
    sparse_opt = Adam([sparse_p], lr=0.01)
    bind(sparse_opt, sparse_p, indices)
    for _ in range(5):
        grad = masked_grad(rng, mask)
        dense_p.grad = grad.copy()
        sparse_p.grad = grad.copy()
        dense_opt.step()
        sparse_opt.step()
        np.testing.assert_allclose(
            sparse_p.data[mask], dense_p.data[mask], atol=1e-6
        )
        assert np.all(sparse_p.data[~mask] == 0.0)
    assert sparse_opt.state_for(sparse_p)["step"] == 5


def test_dense_fallback_when_unbound():
    dense_p, sparse_p, mask, indices, rng = make_pair(seed=5)
    opt = SGD([sparse_p], lr=0.1, momentum=0.9)
    grad = masked_grad(rng, mask)
    sparse_p.grad = grad.copy()
    opt.step()  # no binding: plain dense step
    reference = SGD([dense_p], lr=0.1, momentum=0.9)
    dense_p.grad = grad.copy()
    reference.step()
    np.testing.assert_allclose(sparse_p.data, dense_p.data, atol=1e-6)


def test_full_density_binding_uses_dense_path():
    rng = np.random.default_rng(7)
    p = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.9)
    opt.bind_sparse_indices({id(p): lambda: np.arange(p.size)})
    p.grad = rng.standard_normal((4, 4)).astype(np.float32)
    opt.step()  # indices cover everything -> dense in-place path, no crash
    assert opt.state_for(p)["momentum"].shape == (4, 4)
