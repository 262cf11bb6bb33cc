"""Differentiable 2-D convolution and pooling, implemented with im2col.

These are the performance-critical ops for the VGG/ResNet experiments.  The
forward pass lowers convolution to a single large matrix multiplication over
sliding windows (``numpy.lib.stride_tricks.sliding_window_view``); the
backward pass uses the classic col2im trick of ``KH*KW`` strided slice-adds,
avoiding any per-pixel Python loops.

Every intermediate is a fresh array allocated where it is used, so it is
freed with the step's graph.

All ops use NCHW layout, matching the rest of the library.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.tensor import Tensor, ensure_tensor

__all__ = [
    "conv2d",
    "max_pool2d",
]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: tuple[int, int], padding: tuple[int, int]):
    """Extract sliding windows.

    Returns ``(cols, x_padded_shape, out_h, out_w)`` where ``cols`` has shape
    ``(N, out_h, out_w, C, kh, kw)`` and is a strided *view* when possible.
    """
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))  # (N, C, H', W', kh, kw)
    windows = windows[:, :, ::sh, ::sw]  # stride subsampling
    cols = windows.transpose(0, 2, 3, 1, 4, 5)  # (N, out_h, out_w, C, kh, kw)
    return cols, x.shape, out_h, out_w


def _col2im(
    grad_cols: np.ndarray,
    padded_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_shape: tuple[int, ...],
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter window gradients back to the image.

    ``grad_cols`` has shape ``(N, out_h, out_w, C, kh, kw)``; the result has
    the original (un-padded) input shape ``out_shape``.
    """
    sh, sw = stride
    ph, pw = padding
    n, out_h, out_w = grad_cols.shape[:3]
    grad_padded = np.zeros(padded_shape, dtype=grad_cols.dtype)
    # One strided slice-add per kernel offset: overlapping windows accumulate.
    moved = grad_cols.transpose(0, 3, 1, 2, 4, 5)  # (N, C, out_h, out_w, kh, kw)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += moved[
                :, :, :, :, i, j
            ]
    if ph or pw:
        h, w = out_shape[2], out_shape[3]
        grad_padded = grad_padded[:, :, ph : ph + h, pw : pw + w]
    return grad_padded


def conv2d(x, weight, bias=None, stride=1, padding=0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-channel bias of shape ``(C_out,)``.
    stride, padding:
        Ints or ``(h, w)`` pairs.

    The output is C-contiguous NCHW: downstream norm/pool reductions on a
    strided view would pay more than the one transpose-copy does.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    bias_t = ensure_tensor(bias) if bias is not None else None
    stride_hw = _pair(stride)
    padding_hw = _pair(padding)
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {c_in}")

    cols, padded_shape, out_h, out_w = _im2col(x.data, kh, kw, stride_hw, padding_hw)
    n = x.shape[0]
    cols_mat = np.ascontiguousarray(cols).reshape(n * out_h * out_w, c_in * kh * kw)
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    out_mat = cols_mat @ w_mat.T  # (N*out_h*out_w, C_out)
    if bias_t is not None:
        out_mat += bias_t.data
    out_data = np.ascontiguousarray(out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad: np.ndarray) -> None:
        # Every array here is fresh and dies with the step: caching them in
        # a per-layer workspace measured slower (0.79-0.97x steps/s) and
        # held ~40 MiB more peak RSS on the VGG-19 benchmark.
        # reprolint: disable-next=RPL005
        grad_mat = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if weight.requires_grad:
            # An array of its own, so _accumulate adopts it without a copy.
            # reprolint: disable-next=RPL005
            grad_w = np.empty(weight.shape, dtype=grad_mat.dtype)
            np.matmul(grad_mat.T, cols_mat, out=grad_w.reshape(c_out, -1))
            weight._accumulate(grad_w)
        if x.requires_grad:
            grad_cols = (grad_mat @ w_mat).reshape(n, out_h, out_w, c_in, kh, kw)
            x._accumulate(_col2im(grad_cols, padded_shape, kh, kw, stride_hw, padding_hw, x.shape))
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def _max_pool2d_tiled(x, kh: int, kw: int) -> Tensor:
    """Non-overlapping max pool (kernel == stride).

    A pure reshape-reduction — no im2col, window copies, or argmax
    bookkeeping.  When H/W do not divide evenly the trailing rows/columns
    are cropped, exactly as the generic path's window enumeration skips
    them.  The backward replays the windows in the same row-major order as
    the generic path's ``argmax``, routing each gradient to the *first*
    position attaining the max (identical tie-breaking).
    """
    n, c, h, w = x.shape
    out_h, out_w = h // kh, w // kw
    hu, wu = out_h * kh, out_w * kw
    # Strided np.maximum over the kh*kw window offsets beats a reshape
    # reduction by an order of magnitude here: the reduced axes have length
    # kh/kw (tiny), so ufunc.reduce degenerates to per-pair inner loops.
    out_data = x.data[:, :, 0:hu:kh, 0:wu:kw].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                np.maximum(out_data, x.data[:, :, i:hu:kh, j:wu:kw], out=out_data)

    def backward(grad: np.ndarray) -> None:
        # Fresh buffer by design: _accumulate may adopt grad_x as x.grad, so
        # reusing a cached array would alias gradients across steps.
        # reprolint: disable-next=RPL005
        grad_x = np.zeros(x.shape, dtype=grad.dtype)
        unassigned = None
        for i in range(kh):
            for j in range(kw):
                take = np.equal(x.data[:, :, i:hu:kh, j:wu:kw], out_data)
                if unassigned is not None:
                    take &= unassigned
                np.multiply(grad, take, out=grad_x[:, :, i:hu:kh, j:wu:kw])
                if i < kh - 1 or j < kw - 1:
                    if unassigned is None:
                        unassigned = np.logical_not(take)
                    else:
                        unassigned &= np.logical_not(take, out=take)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def max_pool2d(x, kernel_size, stride=None) -> Tensor:
    """Max pooling over ``kernel_size`` windows (default stride = kernel)."""
    x = ensure_tensor(x)
    kh, kw = _pair(kernel_size)
    stride_hw = _pair(stride) if stride is not None else (kh, kw)
    if stride_hw == (kh, kw) and x.shape[2] >= kh and x.shape[3] >= kw:
        return _max_pool2d_tiled(x, kh, kw)
    cols, padded_shape, out_h, out_w = _im2col(x.data, kh, kw, stride_hw, (0, 0))
    n, _, c = cols.shape[0], cols.shape[1], cols.shape[3]
    flat = np.ascontiguousarray(cols).reshape(n, out_h, out_w, c, kh * kw)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out_data = out_data.transpose(0, 3, 1, 2)  # (N, C, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        # Cold path: strided pooling only (the common stride==kernel case is
        # handled by _max_pool2d_tiled above), and put_along_axis needs a
        # zeroed scatter target each call.
        # reprolint: disable-next=RPL005
        grad_cols = np.zeros((n, out_h, out_w, c, kh * kw), dtype=grad.dtype)
        np.put_along_axis(grad_cols, arg[..., None], grad.transpose(0, 2, 3, 1)[..., None], axis=-1)
        grad_cols = grad_cols.reshape(n, out_h, out_w, c, kh, kw)
        grad_x = _col2im(grad_cols, padded_shape, kh, kw, stride_hw, (0, 0), x.shape)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)
