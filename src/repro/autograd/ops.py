"""Differentiable primitive operations on :class:`~repro.autograd.tensor.Tensor`.

Every function takes tensors (or array-likes, which are promoted to constant
tensors), computes the forward result with numpy, and registers a backward
closure that routes the output gradient to each parent via the op's local
Jacobian-vector product.  Broadcasting is supported everywhere numpy supports
it; the adjoint of broadcasting is handled by
:func:`repro.autograd.tensor._unbroadcast`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, ensure_tensor, is_grad_enabled, _unbroadcast

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "matmul",
    "linear",
    "exp",
    "log",
    "sqrt",
    "abs",
    "tanh",
    "sigmoid",
    "relu",
    "where",
    "sum",
    "mean",
    "var",
    "batch_norm",
    "layer_norm",
    "gelu",
    "max",
    "min",
    "reshape",
    "transpose",
    "getitem",
    "embedding",
    "softmax",
    "log_softmax",
]


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad, a.shape))
        b._accumulate(_unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad, a.shape))
        b._accumulate(_unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * b.data, a.shape))
        b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad / b.data, a.shape))
        b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = ensure_tensor(a)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(-grad)

    return Tensor._make(-a.data, (a,), backward)


def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a constant scalar exponent.

    ``x**0`` has gradient exactly 0 everywhere, including at ``x = 0``.
    """
    a = ensure_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("pow supports only constant scalar exponents")
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        if exponent == 0.0:
            a._accumulate(np.zeros_like(grad))
            return
        a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b``.

    Supports 2-D matrices and batched matmul with broadcasting over leading
    batch dimensions (the same cases ``numpy.matmul`` supports for ndim ≥ 2).
    1-D operands are not supported; reshape to explicit matrices instead.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul requires ndim >= 2 operands, got {a.ndim} and {b.ndim}; "
            "reshape 1-D vectors explicitly"
        )
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        grad_a = grad @ np.swapaxes(b.data, -1, -2)
        grad_b = np.swapaxes(a.data, -1, -2) @ grad
        a._accumulate(_unbroadcast(grad_a, a.shape))
        b._accumulate(_unbroadcast(grad_b, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def linear(x, weight, bias=None) -> Tensor:
    """Affine map ``x @ weight.T + bias``, one node with closed-form backward.

    ``x`` is ``(..., in)`` and ``weight`` ``(out, in)``; leading axes of
    ``x`` are flattened into rows for the products and restored on the
    output and on ``dx``.  The backward is ``dx = grad @ weight``,
    ``dweight = (x.T @ grad).T`` and ``dbias = grad.sum(0)``: for a 2-D
    ``x`` these are the products of the composed
    ``matmul(x, transpose(weight)) + bias`` graph, so the values are bitwise
    the same, without its transpose and add nodes.  ``dweight`` is stored
    C-ordered.  ``grad.T @ x`` is not used for it: BLAS rounds it
    differently from ``x.T @ grad`` at some float64 shapes.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    if x.ndim < 1 or weight.ndim != 2:
        raise ValueError(
            f"linear expects an (..., in) input and a 2-D weight, "
            f"got {x.ndim}-D and {weight.ndim}-D"
        )
    # A view for a 2-D input: same strides, so the same BLAS rounding.
    x2d = x.data.reshape(-1, x.shape[-1])
    out_data = x2d @ weight.data.T
    if bias is None:
        parents = (x, weight)
    else:
        bias = ensure_tensor(bias)
        out_data = out_data + bias.data
        parents = (x, weight, bias)
    out_data = out_data.reshape(x.shape[:-1] + (weight.shape[0],))

    def backward(grad: np.ndarray) -> None:
        grad2d = grad.reshape(-1, grad.shape[-1])
        if x.requires_grad:
            # Reshape the fresh product in place: a reshaped view would make
            # ``_accumulate`` copy it again.
            grad_x = grad2d @ weight.data
            grad_x.shape = x.shape
            x._accumulate(grad_x)
        if weight.requires_grad:
            weight._accumulate(np.ascontiguousarray((x2d.T @ grad2d).T))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad2d.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = ensure_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data)

    return Tensor._make(out_data, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = ensure_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / a.data)

    return Tensor._make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = ensure_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (a,), backward)


def abs(a) -> Tensor:
    """Elementwise absolute value (sub-gradient 0 at the kink)."""
    a = ensure_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * np.sign(a.data))

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = ensure_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    """Numerically stable elementwise logistic sigmoid."""
    a = ensure_tensor(a)
    x = a.data
    out_data = np.empty_like(x)
    positive = x >= 0
    out_data[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out_data[~positive] = exp_x / (1.0 + exp_x)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    """Elementwise rectified linear unit."""
    a = ensure_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (a.data > 0))

    return Tensor._make(out_data, (a,), backward)


def where(condition, a, b) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``.

    ``condition`` is a boolean array (not differentiated).
    """
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * cond, a.shape))
        b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


def _expand_reduced(grad: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all elements when ``axis=None``)."""
    a = ensure_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims).astype(a.dtype))

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    a = ensure_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax % a.ndim] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )

    def backward(grad: np.ndarray) -> None:
        expanded = _expand_reduced(grad, a.shape, axis, keepdims)
        a._accumulate((expanded / count).astype(a.dtype))

    return Tensor._make(out_data, (a,), backward)


def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance over ``axis``, composed from primitives.

    Backs :meth:`Tensor.var`.  The normalization layers do not use it: batch
    norm and layer norm are fused nodes that compute their statistics in
    numpy.
    """
    a = ensure_tensor(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    squared = mul(centered, centered)
    result = mean(squared, axis=axis, keepdims=keepdims)
    return result


def batch_norm(
    x, gamma, beta, axis: Sequence[int], eps: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused training-mode batch normalization with closed-form backward.

    Composing batch norm from elementwise primitives builds a ten-node
    graph per layer and dominates conv-model step profiles (each node
    materializes a full activation-sized array forward and backward).  The
    fused node makes one pass with the textbook gradient:

    ``dx = gamma * inv_std * (dy - (sum(dy) + x_hat * sum(dy * x_hat)) / m)``

    where the sums run over ``axis`` and ``m`` is the reduced element
    count.  Returns ``(out, batch_mean, batch_var)``: the normalized
    tensor ``(x - mu) / sqrt(var + eps) * gamma + beta`` with biased
    (population) variance exactly like the composed form, plus the flat
    batch statistics for the layer's running-estimate update.
    """
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    data = x.data
    m = 1
    for ax in axes:
        m *= data.shape[ax % data.ndim]
    pshape = tuple(
        1 if ax in tuple(a % data.ndim for a in axes) else data.shape[ax]
        for ax in range(data.ndim)
    )
    # ufunc.reduce over the short strided H/W axes of NCHW activations is
    # an order of magnitude slower than einsum's strided-sum loops at the
    # small spatial sizes this library targets, so the 4d path sums via
    # einsum (plain left-to-right accumulation instead of pairwise — a
    # different rounding, but within normal float32 reduction tolerance).
    nchw = data.ndim == 4 and tuple(a % 4 for a in axes) == (0, 2, 3)
    if nchw:
        mu = (np.einsum("nchw->c", data) / m).reshape(pshape)
    else:
        mu = data.mean(axis=axes, keepdims=True)
    centered = data - mu
    if nchw:
        var_ = (np.einsum("nchw,nchw->c", centered, centered) / m).reshape(pshape)
    else:
        var_ = np.mean(centered * centered, axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var_ + eps)
    np.multiply(centered, inv_std, out=centered)
    x_hat = centered
    out_data = x_hat * gamma.data.reshape(pshape)
    out_data += beta.data.reshape(pshape)

    def backward(grad: np.ndarray) -> None:
        if nchw:
            dbeta = np.einsum("nchw->c", grad).reshape(pshape)
            dgamma = np.einsum("nchw,nchw->c", grad, x_hat).reshape(pshape)
        else:
            dbeta = grad.sum(axis=axes, keepdims=True)
            dgamma = (grad * x_hat).sum(axis=axes, keepdims=True)
        beta._accumulate(dbeta.reshape(beta.shape))
        gamma._accumulate(dgamma.reshape(gamma.shape))
        scale = gamma.data.reshape(pshape) * inv_std
        # One full-size temporary, mutated in place (activation-sized
        # allocations are the dominant cost of the composed form).
        dx = x_hat * dgamma
        dx += dbeta
        dx /= m
        np.subtract(grad, dx, out=dx)
        dx *= scale
        x._accumulate(dx)

    result = Tensor._make(out_data, (x, gamma, beta), backward)
    return result, mu.reshape(-1), var_.reshape(-1)


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Layer normalization over the last axis, one node with closed-form backward.

    ``(x - mu) / sqrt(var + eps) * gamma + beta`` with per-row mean and
    biased variance over the last axis, for any leading shape.  The forward
    keeps ``x_hat`` and ``inv_std``; with ``g = grad * gamma`` the backward is

    ``dx = inv_std * (g - mean(g) - x_hat * mean(g * x_hat))``

    (row means), and ``dbeta = sum(grad)``, ``dgamma = sum(grad * x_hat)``
    summed over the leading axes.
    """
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    data = x.data
    n = data.shape[-1]
    # einsum's row and column reductions are 2-3x faster than ufunc.reduce
    # on the narrow (rows, 64) activations of the char-GPT.
    x_hat = data - (np.einsum("...i->...", data) / n)[..., None]
    var_ = np.einsum("...i,...i->...", x_hat, x_hat) / n
    inv_std = (1.0 / np.sqrt(var_ + eps))[..., None]
    x_hat *= inv_std
    out_data = x_hat * gamma.data
    out_data += beta.data

    def backward(grad: np.ndarray) -> None:
        # einsum sums an F-ordered array (a sparse layer's input gradient)
        # in another order than a C-ordered one; one layout, one rounding.
        grad = np.ascontiguousarray(grad)
        rows = grad.reshape(-1, n)
        beta._accumulate(np.einsum("ni->i", rows))
        gamma._accumulate(np.einsum("ni,ni->i", rows, x_hat.reshape(-1, n)))
        g = grad * gamma.data
        mean_g = np.einsum("...i->...", g) / n
        mean_gx = np.einsum("...i,...i->...", g, x_hat) / n
        dx = x_hat * mean_gx[..., None]
        dx += mean_g[..., None]
        np.subtract(g, dx, out=dx)
        dx *= inv_std
        x._accumulate(dx)

    return Tensor._make(out_data, (x, gamma, beta), backward)


# Constants of the tanh-approximate GELU (Hendrycks & Gimpel, 2016) — the
# form used by GPT-2 and the Graphcore dynamic-sparsity LM exemplar.
_GELU_SCALE = 0.7978845608028654  # sqrt(2 / pi)
_GELU_CUBIC = 0.044715


def gelu(a) -> Tensor:
    """Tanh-approximate GELU, one node with a derivative saved in the forward.

    ``0.5 * x * (1 + t)`` with ``t = tanh(sqrt(2/pi) * (x + 0.044715 * x**3))``.
    When the graph is recorded the forward also stores the local derivative

    ``d = 0.5 * (1 + t) + 0.5 * x * (1 - t**2) * sqrt(2/pi) * (1 + 3 * 0.044715 * x**2)``

    (computed as ``(1 + t) * (0.5 + (1 - t) * 0.5 * x * ...)``), so the
    backward is one ``grad * d``.  Under :func:`no_grad`, or for a constant
    input, ``d`` is never computed.
    """
    a = ensure_tensor(a)
    x = a.data
    x2 = x * x
    t = x2 * _GELU_CUBIC
    t += 1.0
    t *= x
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    out_data = t + 1.0
    out_data *= x
    out_data *= 0.5
    if not (is_grad_enabled() and a.requires_grad):
        return Tensor(out_data)

    # x2 becomes 0.5 * x * sqrt(2/pi) * (1 + 3 * 0.044715 * x**2).
    x2 *= 3.0 * _GELU_CUBIC
    x2 += 1.0
    x2 *= 0.5 * _GELU_SCALE
    x2 *= x
    d = 1.0 - t
    d *= x2
    d += 0.5
    t += 1.0
    d *= t

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * d)

    return Tensor._make(out_data, (a,), backward)


def _extreme(a, axis, keepdims: bool, mode: str) -> Tensor:
    a = ensure_tensor(a)
    reducer = np.max if mode == "max" else np.min
    out_data = reducer(a.data, axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        expanded_out = _expand_reduced(out_data if keepdims else np.asarray(out_data), a.shape, axis, keepdims)
        mask = (a.data == expanded_out).astype(a.dtype)
        # Split gradient equally among ties so the op stays a valid sub-gradient.
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        expanded_grad = _expand_reduced(grad, a.shape, axis, keepdims)
        a._accumulate((expanded_grad * mask / counts).astype(a.dtype))

    return Tensor._make(out_data, (a,), backward)


def max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over ``axis`` (gradient split among ties)."""
    return _extreme(a, axis, keepdims, "max")


def min(a, axis=None, keepdims: bool = False) -> Tensor:
    """Minimum over ``axis`` (gradient split among ties)."""
    return _extreme(a, axis, keepdims, "min")


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------


def reshape(a, shape: Sequence[int]) -> Tensor:
    """Reshape without changing the element order."""
    a = ensure_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad.reshape(a.shape))

    return Tensor._make(out_data, (a,), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute dimensions (reverse them when ``axes`` is None)."""
    a = ensure_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(np.transpose(grad, inverse))

    return Tensor._make(out_data, (a,), backward)


def getitem(a, index) -> Tensor:
    """Numpy-style indexing/slicing with gradient scatter-add on backward."""
    a = ensure_tensor(a)
    if isinstance(index, Tensor):
        index = index.data
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        a._accumulate(full)

    return Tensor._make(out_data, (a,), backward)


def embedding(weight, indices) -> Tensor:
    """Row lookup ``weight[indices]`` with a sorted segment-sum backward.

    ``weight`` is ``(num_embeddings, dim)`` and ``indices`` an integer
    array of any shape with values in ``[0, num_embeddings)``; the output
    is ``indices.shape + (dim,)``.  Ids outside that range raise
    ``IndexError``: a negative id would alias a positive one in the forward
    but fall into its own segment in the backward.  The backward groups the gradient rows by
    id with a stable argsort and sums each group with ``np.add.reduce``
    over a C-ordered block.  That sum runs row after row, in the order the
    ids occur, and adds into a zero row, which is exactly what
    ``np.add.at`` computes, so the gradient is bitwise the one
    :func:`getitem` gives.  Rows no id touches stay exactly zero.
    """
    weight = ensure_tensor(weight)
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding ids must be integers, got dtype {idx.dtype}")
    num_embeddings = weight.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= num_embeddings):
        raise IndexError(
            f"embedding ids must be in [0, {num_embeddings}), "
            f"got range [{idx.min()}, {idx.max()}]"
        )
    out_data = weight.data[idx]

    def backward(grad: np.ndarray) -> None:
        ids = idx.reshape(-1)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        rows = grad.reshape((ids.size,) + weight.shape[1:])[order]
        starts = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
        ends = np.append(starts[1:], ids.size)
        sums = np.empty((starts.size,) + rows.shape[1:], dtype=rows.dtype)
        for k, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            np.add.reduce(rows[start:end], axis=0, out=sums[k])
        full = np.zeros_like(weight.data)
        full[ids[starts]] += sums
        weight._accumulate(full)

    return Tensor._make(out_data, (weight,), backward)


# ----------------------------------------------------------------------
# softmax family (fused for numerical stability and speed)
# ----------------------------------------------------------------------


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(a))`` along ``axis``."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    softmax_data = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_sum = grad.sum(axis=axis, keepdims=True)
        a._accumulate(grad - softmax_data * grad_sum)

    return Tensor._make(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (a,), backward)
