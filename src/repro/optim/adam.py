"""Adam optimizer (used by the GNN link-prediction experiments)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autograd.tensor import Tensor
from repro.optim.sgd import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias correction, following Kingma & Ba (2015).

    Parameters bound through :meth:`Optimizer.bind_sparse_indices` (see
    :meth:`repro.sparse.masked.MaskedModel.bind_optimizer`) are updated only
    at their active coordinates, and their moments are vectors over those
    coordinates; :meth:`Optimizer.reset_state` zeroes them for regrown
    weights.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _moments_for(self, param: Tensor) -> tuple[dict, int, np.ndarray, np.ndarray]:
        state = self.state_for(param)
        step_count = state.get("step", 0) + 1
        m = state.get("m")
        v = state.get("v")
        if m is None:
            m = self.zeros_state(param)
            v = self.zeros_state(param)
        state.update(step=step_count, m=m, v=v)
        return state, step_count, m, v

    def _dense_step(self, param: Tensor, grad: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        state, step_count, m, v = self._moments_for(param)
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        state.update(m=m, v=v)
        m_hat = m / (1 - self.beta1**step_count)
        v_hat = v / (1 - self.beta2**step_count)
        param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _sparse_step(self, param: Tensor, grad: np.ndarray, indices, positions) -> None:
        """Update only the active coordinates (cost ∝ non-zeros)."""
        _, step_count, m, v = self._moments_for(param)
        flat_weight = param.data.reshape(-1)
        grad_active = grad.reshape(-1)[indices]
        if self.weight_decay:
            grad_active += self.weight_decay * flat_weight[indices]
        m_active = m[positions]
        m_active *= self.beta1
        m_active += (1 - self.beta1) * grad_active
        m[positions] = m_active
        v_active = v[positions]
        v_active *= self.beta2
        v_active += (1 - self.beta2) * grad_active * grad_active
        v[positions] = v_active
        m_hat = m_active / (1 - self.beta1**step_count)
        v_hat = v_active / (1 - self.beta2**step_count)
        flat_weight[indices] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
