"""Differentiable 2-D convolution and pooling, implemented with im2col.

These are the performance-critical ops for the VGG/ResNet experiments.  The
forward pass lowers convolution to a single large matrix multiplication over
sliding windows (``numpy.lib.stride_tricks.sliding_window_view``); the
backward pass uses the classic col2im trick of ``KH*KW`` strided slice-adds,
avoiding any per-pixel Python loops.

The conv pipeline is **allocation-free in steady state** when a
:class:`ConvWorkspace` is supplied (each :class:`~repro.nn.Conv2d` owns
one): the contiguous ``cols`` matrix, the padded-input staging buffer, the
output buffers, the weight/input gradient buffers and the ``col2im``
scatter scratch are all cached across steps and re-filled in place
(``np.copyto`` / ``np.matmul(..., out=...)``).  Buffers are invalidated
automatically on any shape change (e.g. the final short batch, or switching
between train and eval batch sizes).

All ops use NCHW layout, matching the rest of the library.
"""

from __future__ import annotations

import os
import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.tensor import Tensor, ensure_tensor

__all__ = [
    "ConvWorkspace",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "pad2d",
    "conv_output_size",
]

WORKSPACE_ENV = "REPRO_CONV_WORKSPACE"


def workspace_enabled() -> bool:
    """Workspace reuse kill-switch (``REPRO_CONV_WORKSPACE=0`` disables)."""
    return os.environ.get(WORKSPACE_ENV, "1") != "0"


class ConvWorkspace:
    """Reusable named buffers for one conv layer's forward and backward.

    ``get`` returns a cached ``np.empty`` buffer for ``(name, shape,
    dtype)``, reallocating only when the shape or dtype changed since the
    previous call.  A ``zeros`` buffer is zero-filled at allocation and
    also reallocated when its ``key`` changes: the key names the layout of
    the region callers write (the padded-input interior), so the rest
    stays zero.

    Buffers live for one step: a recorded forward holds them (:meth:`hold`)
    until its backward calls :meth:`release`, and :meth:`claim` gives a
    forward run in between (a layer run twice before one backward) a fresh
    workspace.  A graph dropped without a backward frees them when its
    output dies.  ``REPRO_CONV_WORKSPACE=0`` allocates on every call.
    """

    __slots__ = ("_buffers", "_pending")

    def __init__(self):
        self._buffers: dict[str, tuple[object, np.ndarray]] = {}
        self._pending: weakref.ref | None = None

    def claim(self) -> "ConvWorkspace":
        """This workspace, or a fresh one while a held forward is pending."""
        pending = self._pending
        if pending is not None and pending() is not None:
            return ConvWorkspace()
        return self

    def hold(self, out: Tensor) -> None:
        """Keep the buffers for ``out``'s backward if ``out`` records one."""
        self._pending = weakref.ref(out) if out.requires_grad else None

    def release(self) -> None:
        self._pending = None

    def _lookup(self, name: str, shape, dtype, alloc, key=None) -> np.ndarray:
        if not workspace_enabled():
            return alloc(shape, dtype=dtype)
        entry = self._buffers.get(name)
        if entry is None or entry[0] != key or entry[1].shape != shape or entry[1].dtype != dtype:
            entry = self._buffers[name] = (key, alloc(shape, dtype=dtype))
        return entry[1]

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        return self._lookup(name, shape, dtype, np.empty)

    def zeros(self, name: str, shape: tuple[int, ...], dtype=np.float32, key=None) -> np.ndarray:
        """Like :meth:`get`, but the buffer is zero-filled at allocation."""
        return self._lookup(name, shape, dtype, np.zeros, key)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    workspace: ConvWorkspace | None = None,
):
    """Extract sliding windows.

    Returns ``(cols, x_padded_shape, out_h, out_w)`` where ``cols`` has shape
    ``(N, out_h, out_w, C, kh, kw)`` and is a strided *view* when possible.
    With a workspace, the padded input is staged in a cached buffer whose
    border is written once (at allocation) and stays zero thereafter.
    """
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        if workspace is not None:
            n_, c_, h_, w_ = x.shape
            padded = workspace.zeros("x_padded", (n_, c_, h_ + 2 * ph, w_ + 2 * pw), x.dtype)
            padded[:, :, ph : ph + h_, pw : pw + w_] = x
            x = padded
        else:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))  # (N, C, H', W', kh, kw)
    windows = windows[:, :, ::sh, ::sw]  # stride subsampling
    cols = windows.transpose(0, 2, 3, 1, 4, 5)  # (N, out_h, out_w, C, kh, kw)
    return cols, x.shape, out_h, out_w


def _contiguous_cols(cols: np.ndarray, workspace: ConvWorkspace | None = None) -> np.ndarray:
    """C-contiguous copy of an im2col window view (or the view itself).

    An already-contiguous ``cols`` is returned as-is — re-running
    ``np.ascontiguousarray`` on it would copy for nothing.  Otherwise the
    copy lands in the workspace's cached buffer when one is available.
    """
    if cols.flags.c_contiguous:
        return cols
    if workspace is None:
        return np.ascontiguousarray(cols)
    buffer = workspace.get("cols", cols.shape, cols.dtype)
    np.copyto(buffer, cols)
    return buffer


def _col2im(
    grad_cols: np.ndarray,
    padded_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_shape: tuple[int, ...],
    workspace: ConvWorkspace | None = None,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter window gradients back to the image.

    ``grad_cols`` has shape ``(N, out_h, out_w, C, kh, kw)``; the result has
    the original (un-padded) input shape ``out_shape``.  With a workspace
    both the scatter scratch and the returned array are cached buffers (the
    result is always a *base* array, so ``Tensor._accumulate`` can adopt it
    without a defensive copy).
    """
    sh, sw = stride
    ph, pw = padding
    n, out_h, out_w = grad_cols.shape[:3]
    if workspace is not None:
        grad_padded = workspace.get("col2im_scratch", padded_shape, grad_cols.dtype)
        grad_padded.fill(0)
    else:
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
        if workspace is not None:
            grad_x = workspace.get("grad_x", out_shape, grad_cols.dtype)
            np.copyto(grad_x, grad_padded[:, :, ph : ph + h, pw : pw + w])
            return grad_x
        grad_padded = grad_padded[:, :, ph : ph + h, pw : pw + w]
    return grad_padded


def _stage_grad_mat(
    grad: np.ndarray, n: int, out_h: int, out_w: int, c_out: int, workspace: ConvWorkspace | None
) -> np.ndarray:
    """Output gradient ``(N, C_out, H', W')`` as a C-contiguous 2-D matrix.

    The reshape of the transposed view copies either way; with a workspace
    the copy lands in a cached buffer.
    """
    if workspace is not None:
        grad_mat = workspace.get("grad_mat", (n * out_h * out_w, c_out), grad.dtype)
        np.copyto(grad_mat.reshape(n, out_h, out_w, c_out), grad.transpose(0, 2, 3, 1))
        return grad_mat
    return grad.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c_out)


def _accumulate_grad_w(
    weight, grad_mat: np.ndarray, cols_mat: np.ndarray, workspace: ConvWorkspace | None
) -> None:
    """Accumulate the dense weight gradient ``grad_matᵀ @ cols_mat``.

    The cached grad_w buffer may be adopted as ``weight.grad``; when a
    previous accumulation is still pending (no ``zero_grad`` between
    backwards) overwriting it in place would corrupt the sum, so that rare
    path falls back to a fresh allocation.
    """
    c_out = weight.shape[0]
    if workspace is not None and weight.grad is None:
        grad_w = workspace.get("grad_w", weight.shape, grad_mat.dtype)
        np.matmul(grad_mat.T, cols_mat, out=grad_w.reshape(c_out, cols_mat.shape[1]))
        weight._accumulate(grad_w)
    else:
        weight._accumulate((grad_mat.T @ cols_mat).reshape(weight.shape))


def _input_grad_workspace(x, workspace: ConvWorkspace | None):
    """Workspace for the input gradient, or ``None`` under the same
    pending-accumulation guard as :func:`_accumulate_grad_w`.  A leaf input
    keeps its gradient past the step, so it never gets a cached buffer."""
    return workspace if x.grad is None and x._parents else None


def conv2d(x, weight, bias=None, stride=1, padding=0, workspace=None) -> Tensor:
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
    workspace:
        Optional :class:`ConvWorkspace` owned by the calling layer.  When
        given, every large intermediate (contiguous cols matrix, padded
        input, output, gradient buffers, col2im scratch) is re-used across
        calls, making the steady-state step allocation-free.  The output
        tensor then aliases a workspace buffer that the layer's *next*
        forward overwrites — the standard step lifetime of an activation.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    bias_t = ensure_tensor(bias) if bias is not None else None
    stride_hw = _pair(stride)
    padding_hw = _pair(padding)
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {c_in}")

    if workspace is not None:
        workspace = workspace.claim()
    cols, padded_shape, out_h, out_w = _im2col(x.data, kh, kw, stride_hw, padding_hw, workspace)
    n = x.shape[0]
    cols_mat = _contiguous_cols(cols, workspace).reshape(n * out_h * out_w, c_in * kh * kw)
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    if workspace is not None:
        out_mat = workspace.get("out_mat", (n * out_h * out_w, c_out), cols_mat.dtype)
        np.matmul(cols_mat, w_mat.T, out=out_mat)
        if bias_t is not None:
            np.add(out_mat, bias_t.data, out=out_mat)
        # Contiguous NCHW output (one cached transpose-copy): downstream
        # norm/pool reductions on a strided view would pay more than the
        # copy does, and the buffer is reused every step.
        out_data = workspace.get("out", (n, c_out, out_h, out_w), out_mat.dtype)
        np.copyto(out_data, out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))
    else:
        out_mat = cols_mat @ w_mat.T  # (N*out_h*out_w, C_out)
        out_data = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        if bias_t is not None:
            out_data = out_data + bias_t.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad: np.ndarray) -> None:
        if workspace is not None:
            workspace.release()
        grad_mat = _stage_grad_mat(grad, n, out_h, out_w, c_out, workspace)
        if weight.requires_grad:
            _accumulate_grad_w(weight, grad_mat, cols_mat, workspace)
        if x.requires_grad:
            if workspace is not None:
                grad_cols = workspace.get(
                    "grad_cols", (n * out_h * out_w, c_in * kh * kw), grad.dtype
                )
                np.matmul(grad_mat, w_mat, out=grad_cols)
                grad_cols = grad_cols.reshape(n, out_h, out_w, c_in, kh, kw)
            else:
                grad_cols = (grad_mat @ w_mat).reshape(n, out_h, out_w, c_in, kh, kw)
            ws = _input_grad_workspace(x, workspace)
            grad_x = _col2im(grad_cols, padded_shape, kh, kw, stride_hw, padding_hw, x.shape, ws)
            x._accumulate(grad_x)
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate(grad.sum(axis=(0, 2, 3)))

    out = Tensor._make(out_data, parents, backward)
    if workspace is not None:
        workspace.hold(out)
    return out


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
    flat = _contiguous_cols(cols).reshape(n, out_h, out_w, c, kh * kw)
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


def avg_pool2d(x, kernel_size, stride=None) -> Tensor:
    """Average pooling over ``kernel_size`` windows (default stride = kernel)."""
    x = ensure_tensor(x)
    kh, kw = _pair(kernel_size)
    stride_hw = _pair(stride) if stride is not None else (kh, kw)
    cols, padded_shape, out_h, out_w = _im2col(x.data, kh, kw, stride_hw, (0, 0))
    out_data = cols.mean(axis=(4, 5)).transpose(0, 3, 1, 2)
    n, c = x.shape[0], x.shape[1]
    scale = 1.0 / (kh * kw)

    def backward(grad: np.ndarray) -> None:
        spread = np.broadcast_to(
            (grad * scale).transpose(0, 2, 3, 1)[..., None, None],
            (n, out_h, out_w, c, kh, kw),
        )
        # _col2im's add.at needs a real (writable, contiguous) array, not the
        # zero-stride broadcast view; this materialization is that copy.
        # reprolint: disable-next=RPL005
        spread = np.ascontiguousarray(spread)
        grad_x = _col2im(spread, padded_shape, kh, kw, stride_hw, (0, 0), x.shape)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def pad2d(x, padding) -> Tensor:
    """Zero-pad the two trailing spatial dimensions by ``padding`` pixels."""
    x = ensure_tensor(x)
    ph, pw = _pair(padding)
    out_data = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(grad: np.ndarray) -> None:
        h, w = x.shape[2], x.shape[3]
        x._accumulate(grad[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out_data, (x,), backward)
