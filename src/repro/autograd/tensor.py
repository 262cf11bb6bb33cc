"""The :class:`Tensor` class — a numpy ndarray with reverse-mode autodiff.

Design notes
------------
Each :class:`Tensor` wraps a ``numpy.ndarray`` (``.data``) and, when it is the
result of a differentiable operation, records the parent tensors and a local
backward closure.  Calling :meth:`Tensor.backward` on a scalar (or with an
explicit output gradient) performs a topological sort of the recorded graph
and accumulates gradients into ``.grad`` of every tensor with
``requires_grad=True``.

Gradients are plain ``numpy.ndarray`` objects (not Tensors): the engine does
not support higher-order differentiation, which the paper never needs — the
GraSP baseline's Hessian-vector product is computed with finite differences
instead (see :mod:`repro.sparse.static`).

Graph recording can be disabled globally with the :func:`no_grad` context
manager; inside it every op returns a constant tensor, which is how
evaluation passes and mask-surgery code avoid building graphs.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np
from repro.rng import resolve_rng

DEFAULT_DTYPE = np.float32

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Inside the block every operation behaves like a pure numpy computation:
    results have ``requires_grad=False`` and no parents.  Nesting is allowed.
    """
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shaped like a broadcast result) back to ``shape``.

    Broadcasting in the forward pass implicitly replicates data; the adjoint
    of replication is summation, so gradients must be summed over the axes
    that were expanded.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were length-1 in the original shape.
    squeeze_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    """Convert to ndarray; Python floats/lists default to float32.

    Explicitly-passed ndarrays keep their dtype (so float64 computations —
    e.g. gradient checking — stay float64).
    """
    if isinstance(value, (np.ndarray, np.generic)) and dtype is None:
        return np.asarray(value)
    arr = np.asarray(value, dtype=dtype if dtype is not None else None)
    if arr.dtype == np.float64 and dtype is None:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Python floats/lists are
        converted to :data:`DEFAULT_DTYPE` (float32).
    requires_grad:
        When True, :meth:`backward` accumulates a gradient into ``.grad``.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self.name = name
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.autograd import ops

        return ops.transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a graph-detached cast copy."""
        return Tensor(self.data.astype(dtype), requires_grad=False)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result, recording the graph only when needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        if self.grad is None:
            # Copy views so the gradient never aliases another array; order
            # "K" keeps the layout (a transposed view stays a cheap copy).
            owned = grad.base is None and grad is not self.data
            self.grad = grad if owned else grad.copy(order="K")
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            May be omitted only when this tensor is a scalar, in which case
            it defaults to 1.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar tensor; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Interior nodes do not need to keep their gradient (leaves
                # have no backward closure), freeing memory early.
                if node._parents:
                    node.grad = None if node is not self else node.grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # operator overloads (implementations live in repro.autograd.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.autograd import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from repro.autograd import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        from repro.autograd import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.autograd import ops

        return ops.sub(other, self)

    def __truediv__(self, other):
        from repro.autograd import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.autograd import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.autograd import ops

        return ops.neg(self)

    def __pow__(self, exponent):
        from repro.autograd import ops

        return ops.pow(self, exponent)

    def __matmul__(self, other):
        from repro.autograd import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.autograd import ops

        return ops.getitem(self, index)

    # reductions / shape as methods for convenience -------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.min(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autograd import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def flatten(self, start_dim: int = 0):
        """Collapse dims from ``start_dim`` onward into one."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def transpose(self, *axes):
        from repro.autograd import ops

        return ops.transpose(self, axes if axes else None)

    def abs(self):
        from repro.autograd import ops

        return ops.abs(self)

    def exp(self):
        from repro.autograd import ops

        return ops.exp(self)

    def log(self):
        from repro.autograd import ops

        return ops.log(self)

    def sqrt(self):
        from repro.autograd import ops

        return ops.sqrt(self)

    def relu(self):
        from repro.autograd import ops

        return ops.relu(self)

    def sigmoid(self):
        from repro.autograd import ops

        return ops.sigmoid(self)

    def tanh(self):
        from repro.autograd import ops

        return ops.tanh(self)

    def var(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.var(self, axis=axis, keepdims=keepdims)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def tensor(data, requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Construct a :class:`Tensor` (alias of the class constructor)."""
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """Tensor of zeros with the given shape."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """Tensor of ones with the given shape."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def randn(
    *shape,
    requires_grad: bool = False,
    rng: np.random.Generator | None = None,
    dtype=DEFAULT_DTYPE,
) -> Tensor:
    """Tensor of standard-normal samples with the given shape."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    generator = resolve_rng(rng)
    return Tensor(generator.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


def ensure_tensor(value) -> Tensor:
    """Coerce numpy arrays / scalars into constant tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
