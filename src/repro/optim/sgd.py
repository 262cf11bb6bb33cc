"""Stochastic gradient descent with momentum, weight decay and Nesterov.

The optimizer exposes its per-parameter state (``state[param]``) because
dynamic sparse training restarts newly grown weights without momentum
(RigL/DST-EE semantics), through :meth:`Optimizer.reset_state`.

Two hot-path features support sparse training:

* **Sparse coordinate updates** — :meth:`Optimizer.bind_sparse_indices`
  registers per-parameter active-index providers (wired up by
  :meth:`repro.sparse.masked.MaskedModel.bind_optimizer`).  Bound
  parameters are updated only at their active coordinates, and their
  state arrays are vectors over those coordinates, so step cost and state
  size scale with the non-zero count instead of the layer size.  When the
  active set changes, surviving coordinates keep their state and new ones
  start at zero.  This is observationally identical to the dense update:
  gradients outside the mask are zero, inactive weights stay exactly
  zero, and grown weights restart without state.
* **In-place dense updates** — velocity buffers are updated with
  ``np.multiply/np.add(..., out=)`` and the weight delta goes through a
  reusable per-parameter scratch buffer, so a dense step allocates
  nothing after the first iteration.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.autograd.tensor import Tensor
from repro.hotpath import hot_path

__all__ = ["Optimizer", "SGD"]


def _match(layout: np.ndarray, flat_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``flat_idx`` in sorted ``layout``, and which are there."""
    pos = np.searchsorted(layout, flat_idx)
    hit = pos < layout.size
    hit[hit] = layout[pos[hit]] == flat_idx[hit]
    return pos, hit


def _relaid(value: np.ndarray, old, new, shape: tuple) -> np.ndarray:
    """``value``, laid over flat indices ``old``, laid over ``new`` (``None``:
    the weight shape); coordinates new to the layout start at zero."""
    if old is None:
        return value.copy() if new is None else value.reshape(-1)[new]
    if new is None:
        out = np.zeros(shape, value.dtype)
        out.reshape(-1)[old] = value
        return out
    pos, hit = _match(old, new)
    out = np.zeros(new.size, value.dtype)
    out[hit] = value[pos[hit]]
    return out


class Optimizer:
    """Base optimizer: holds parameters, per-parameter state, and ``lr``.

    Subclasses implement ``_dense_step(param, grad)`` and ``_sparse_step(param,
    grad, indices, positions)`` (flat weight ``indices``, state ``positions``).
    """

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: list[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.state: dict[int, dict[str, np.ndarray]] = {}
        self._sparse_indices: dict[int, Callable[[], np.ndarray]] = {}
        # Flat indices each parameter's state is laid over (None: weight-shaped).
        self._layouts: dict[int, np.ndarray | None] = {}
        self._scratch: dict[int, np.ndarray] = {}

    def state_for(self, param: Tensor) -> dict[str, np.ndarray]:
        """Per-parameter mutable state dict (created on first access)."""
        return self.state.setdefault(id(param), {})

    def bind_sparse_indices(self, providers: dict[int, Callable[[], np.ndarray]]) -> None:
        """Register active-index providers keyed by ``id(param)``.

        A bound parameter is updated only at the sorted flat indices its
        provider returns (re-queried every step, so mask updates are picked
        up automatically), and its state arrays are vectors over them; a
        provider returning ``(indices, positions)`` updates only
        ``indices[positions]``.  Use :meth:`repro.sparse.masked.MaskedModel.bind_optimizer`
        rather than calling this directly.
        """
        self._sparse_indices.update(providers)

    def _relayout(self, param: Tensor, layout: np.ndarray | None) -> None:
        """Lay ``param``'s state arrays over ``layout`` (``None``: weight-shaped)."""
        old = self._layouts.get(id(param))
        if old is layout:
            return
        state = self.state.get(id(param), {})
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                state[key] = _relaid(value, old, layout, param.shape)
        self._layouts[id(param)] = layout

    def zeros_state(self, param: Tensor) -> np.ndarray:
        """A zero state array in ``param``'s current layout."""
        layout = self._layouts.get(id(param))
        return np.zeros_like(param.data if layout is None else layout, dtype=param.data.dtype)

    def reset_state(self, param: Tensor, flat_idx: np.ndarray) -> None:
        """Zero ``param``'s state at flat weight indices ``flat_idx``: grown
        weights restart without momentum or moments, also when they were
        dropped earlier in the same mask update."""
        layout = self._layouts.get(id(param))
        if layout is not None:
            pos, hit = _match(layout, flat_idx)
            flat_idx = pos[hit]
        for value in self.state.get(id(param), {}).values():
            if isinstance(value, np.ndarray):
                value.reshape(-1)[flat_idx] = 0.0

    def expanded_state(self, param: Tensor) -> dict:
        """A copy of ``param``'s state with weight-shaped arrays (zero off
        the coordinates the state is kept for)."""
        layout = self._layouts.get(id(param))
        return {
            key: _relaid(v, layout, None, param.shape) if isinstance(v, np.ndarray) else v
            for key, v in self.state.get(id(param), {}).items()
        }

    def scratch_for(self, param: Tensor) -> np.ndarray:
        """Reusable parameter-shaped temporary (contents are undefined)."""
        buffer = self._scratch.get(id(param))
        if buffer is None or buffer.shape != param.data.shape:
            buffer = np.empty_like(param.data)
            self._scratch[id(param)] = buffer
        return buffer

    def zero_grad(self) -> None:
        """Clear gradients of all tracked parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        for param in self.params:
            if param.grad is None:
                continue
            provider = self._sparse_indices.get(id(param))
            bound = provider() if provider and param.data.flags.c_contiguous else None
            layout, positions = bound if isinstance(bound, tuple) else (bound, slice(None))
            if isinstance(positions, slice) and layout is not None and layout.size == param.size:
                layout = None  # every weight updates: the dense step
            self._relayout(param, layout)
            if layout is None:
                self._dense_step(param, param.grad)
            else:
                self._sparse_step(param, param.grad, layout[positions], positions)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: ``lr`` plus per-parameter state.

        Per-parameter state is keyed by the *position* of the parameter in
        ``self.params`` (``id()`` keys do not survive a process restart).
        Array entries (momentum, Adam moments) are weight-shaped copies
        (:meth:`expanded_state`), whatever their layout in memory; scalar
        entries (Adam step counts) pass through.
        """
        entries = [self.expanded_state(param) for param in self.params]
        return {"type": type(self).__name__, "lr": self.lr, "state": entries}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (resume-exact).

        The optimizer must have been constructed over the same parameter
        list (same count and order); hyper-parameters come from the
        constructor, only ``lr`` and per-parameter state are restored.
        """
        saved_type = state.get("type", type(self).__name__)
        if saved_type != type(self).__name__:
            raise ValueError(
                f"checkpoint optimizer is {saved_type!r}, this optimizer is {type(self).__name__!r}"
            )
        entries = state["state"]
        if len(entries) != len(self.params):
            raise ValueError(
                f"checkpoint has state for {len(entries)} parameters, "
                f"optimizer tracks {len(self.params)}"
            )
        self.lr = float(state["lr"])
        self.state.clear()
        self._layouts.clear()
        for param, entry in zip(self.params, entries):
            if not entry:
                continue
            restored = {}
            for key, value in entry.items():
                if isinstance(value, np.ndarray):
                    if value.shape != param.data.shape:
                        raise ValueError(
                            f"optimizer state {key!r} shape {value.shape} does "
                            f"not match parameter shape {param.data.shape}"
                        )
                    restored[key] = np.array(value, dtype=value.dtype, copy=True)
                else:
                    restored[key] = value
            self.state[id(param)] = restored


class SGD(Optimizer):
    """SGD with (optionally Nesterov) momentum and decoupled-from-mask weight decay.

    Matches the PyTorch update rule:

    ``v <- mu * v + g + wd * w``;  ``w <- w - lr * (g + mu*v)`` for Nesterov
    or ``w <- w - lr * v`` for classic momentum.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)

    def _velocity_for(self, param: Tensor) -> np.ndarray:
        state = self.state_for(param)
        velocity = state.get("momentum")
        if velocity is None:
            velocity = self.zeros_state(param)
            state["momentum"] = velocity
        return velocity

    @hot_path
    def _dense_step(self, param: Tensor, grad: np.ndarray) -> None:
        scratch = self.scratch_for(param)
        if self.weight_decay:
            np.multiply(param.data, self.weight_decay, out=scratch)
            np.add(scratch, grad, out=scratch)
            grad = scratch
        if self.momentum:
            velocity = self._velocity_for(param)
            np.multiply(velocity, self.momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            if self.nesterov:
                # w -= lr*(g + mu*v), applied as two axpy passes through the
                # scratch buffer so this path allocates nothing either.
                np.multiply(grad, -self.lr, out=scratch)
                np.add(param.data, scratch, out=param.data)
                np.multiply(velocity, -self.lr * self.momentum, out=scratch)
                np.add(param.data, scratch, out=param.data)
                return
            update = velocity
        else:
            update = grad
        if update is scratch:
            np.multiply(scratch, -self.lr, out=scratch)
        else:
            np.multiply(update, -self.lr, out=scratch)
        np.add(param.data, scratch, out=param.data)

    def _sparse_step(self, param: Tensor, grad: np.ndarray, indices, positions) -> None:
        """Update only the active coordinates (cost ∝ non-zeros)."""
        flat_weight = param.data.reshape(-1)
        grad_active = grad.reshape(-1)[indices]
        if self.weight_decay:
            grad_active += self.weight_decay * flat_weight[indices]
        if self.momentum:
            velocity = self._velocity_for(param)
            velocity_active = velocity[positions]
            velocity_active *= self.momentum
            velocity_active += grad_active
            velocity[positions] = velocity_active
            if self.nesterov:
                update = grad_active + self.momentum * velocity_active
            else:
                update = velocity_active
        else:
            update = grad_active
        # Out of place: ``update`` may be a view of the velocity.
        flat_weight[indices] -= update * self.lr
