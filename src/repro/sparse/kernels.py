"""Training-time sparse kernel backends for masked Linear/Conv2d layers.

The drop-and-grow engine keeps masks as dense booleans, but at the paper's
90–98% sparsities the *compute* should exploit the sparse structure too
(RigL and the Graphcore dynamic-sparsity stack both make this point).  This
module provides that compute path for **training**:

* :class:`CsrMatmul` — a mask-structured CSR form of one 2-D weight view.
  The structure (``indices``/``indptr`` plus the value-gather permutations)
  is rebuilt only when the owning layer's ``mask_version`` changes, i.e.
  only for layers whose masks actually moved in a drop-and-grow round;
  values are refreshed from the dense parameter by a single ``np.take``
  into the preallocated CSR ``data`` arrays — no per-step allocation.
* :class:`BsrMatmul` — the block-structured counterpart for layers with
  ``block_size > 1`` masks: structure rebuilds expand the engine's sorted
  active-block set in ``O(nnz)`` and the products run through direct
  ``csr_matvecs`` calls (sparse operand on the left, preallocated outputs)
  that sidestep scipy's per-call operator dispatch.
* :class:`LinearKernel` / :class:`Conv2dKernel` — backend objects installed
  on ``module.forward_backend`` (see :mod:`repro.nn.linear` /
  :mod:`repro.nn.conv`).  They run the masked forward through the sparse
  matmuls and register an autograd closure whose input gradient also uses
  the sparse structure.  The conv kernel is a direct sparse convolution:
  one CSR product per kernel tap over a shifted view of the input, with no
  im2col.  The compiled serving layers (:mod:`repro.sparse.inference`)
  run the same forwards, ``_csr_product`` and ``_tap_conv``.  The
  **weight** gradient is dense whenever growth may read it
  (``SparseParam.dense_grads_required``): growth rules (RigL, DST-EE,
  SNFS) score *inactive* weights by dense-gradient magnitude, so that GEMM
  is part of the algorithm.  Between mask updates a block-masked (BSR)
  layer computes only its active tiles (a block-sampled dense-dense
  matmul, SDDMM); CSR layers stay dense every step.
* A dispatch layer: per layer, ``dense`` vs ``csr``/``bsr`` is
  auto-selected from the layer's density, size and mask granularity; the
  mode and thresholds are overridable per call or process-wide via
  environment variables.

Every product calls scipy's ``csr_matvecs`` kernel directly with the
sparse operand on the left (``Y += A @ X`` over C-contiguous operands),
which skips the per-call wrapper objects, transposes and ravel copies of
scipy's ``dense @ sparse`` operator.  Each orientation reads its own stored
structure (``W`` and ``W.T`` share their nnz values through cached gather
permutations).  The CSR products return the Fortran-ordered ``.T`` view of
a C-contiguous ``(rows, N)`` result, so a chained sparse layer receives an
input whose transpose is already C-contiguous and needs no staging copy.

Environment overrides
---------------------
``REPRO_SPARSE_BACKEND``            ``auto`` (default) / ``dense`` / ``csr`` / ``bsr``
``REPRO_SPARSE_DENSITY_THRESHOLD``  density at/below which ``auto`` picks CSR
``REPRO_SPARSE_MIN_SIZE``           minimum weight size for the CSR backend
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.sparse import _sparsetools

from repro import nn
from repro.autograd.conv import ConvWorkspace, _input_grad_workspace, _pair
from repro.autograd.tensor import Tensor, ensure_tensor
from repro.hotpath import hot_path
from repro.sparse.blocks import expand_block_csr
from repro.sparse.masked import MaskedModel, SparseParam

__all__ = [
    "BACKEND_ENV",
    "DENSITY_THRESHOLD_ENV",
    "MIN_SIZE_ENV",
    "DEFAULT_DENSITY_THRESHOLD",
    "DEFAULT_MIN_SIZE",
    "MODES",
    "CsrMatmul",
    "BsrMatmul",
    "LinearKernel",
    "Conv2dKernel",
    "resolve_mode",
    "select_backend",
    "install_sparse_backend",
    "install_training_backends",
    "remove_training_backends",
]

BACKEND_ENV = "REPRO_SPARSE_BACKEND"
DENSITY_THRESHOLD_ENV = "REPRO_SPARSE_DENSITY_THRESHOLD"
MIN_SIZE_ENV = "REPRO_SPARSE_MIN_SIZE"

# On this CPU the scipy CSR kernels run ~7x fewer effective FLOP/s than the
# dense BLAS GEMM, so CSR wins once it does ~7x less work; 0.12 leaves some
# margin (90/95/98% sparsity -> CSR, 80% -> dense).  See docs/performance.md.
DEFAULT_DENSITY_THRESHOLD = 0.12
# Below this weight size the per-call overhead dominates; stay dense.
DEFAULT_MIN_SIZE = 16384

MODES = ("auto", "dense", "csr", "bsr")


def resolve_mode(mode: str | None = None) -> str:
    """Explicit argument > ``REPRO_SPARSE_BACKEND`` env var > ``auto``."""
    resolved = mode if mode is not None else os.environ.get(BACKEND_ENV, "auto")
    resolved = resolved.lower()
    if resolved not in MODES:
        raise ValueError(f"unknown sparse backend {resolved!r}; choose from {MODES}")
    return resolved


def _float_env(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


def select_backend(
    density: float,
    size: int,
    mode: str = "auto",
    density_threshold: float | None = None,
    min_size: int | None = None,
    block_size: int = 1,
) -> str:
    """Pick ``"dense"``, ``"csr"`` or ``"bsr"`` for one layer.

    ``"bsr"`` requires a block-structured mask (``block_size > 1``): block
    layers are forced sparse under an explicit ``mode="bsr"``, while layers
    without a block mask — the per-layer non-divisible fallbacks — go
    through the auto density/size thresholds instead (an ERK-dense fallback
    layer forced onto CSR would pay the sparse overhead at density ~1).
    """
    if mode in ("dense", "csr"):
        return mode
    if mode == "bsr" and block_size > 1:
        return "bsr"
    if density_threshold is None:
        density_threshold = _float_env(DENSITY_THRESHOLD_ENV, DEFAULT_DENSITY_THRESHOLD)
    if min_size is None:
        min_size = int(_float_env(MIN_SIZE_ENV, DEFAULT_MIN_SIZE))
    if size >= min_size and density <= density_threshold:
        return "bsr" if block_size > 1 else "csr"
    return "dense"


@hot_path
def _csr_matvecs(indptr, indices, data, x2d: np.ndarray, out: np.ndarray) -> None:
    """``out += A @ x2d`` for the CSR matrix ``A`` of shape
    ``(out.shape[0], x2d.shape[0])``; both operands C-contiguous."""
    _sparsetools.csr_matvecs(
        out.shape[0], x2d.shape[0], x2d.shape[1], indptr, indices, data, x2d.ravel(), out.ravel()
    )


@hot_path
def _csr_product(indptr, indices, data, shape: tuple[int, int], a2d: np.ndarray) -> np.ndarray:
    """``(A @ a2d.T).T`` for the CSR matrix ``A`` of shape ``shape``.

    ``csr_matvecs`` indexes the operand with the stored column indices and
    checks no bounds, so the operand's width is checked here.
    """
    n_out, n_col = shape
    if a2d.ndim != 2 or a2d.shape[1] != n_col:
        raise ValueError(
            f"dimension mismatch: sparse product expects a 2-D operand with "
            f"{n_col} columns, got shape {a2d.shape}"
        )
    # One staging copy; a Fortran-ordered operand (the output of a previous
    # sparse product) is already C-contiguous when transposed and skips it.
    a_t = np.ascontiguousarray(a2d.T)  # reprolint: disable=RPL005
    # Fresh per call: the result is handed to autograd or to a serving caller.
    dtype = np.promote_types(data.dtype, a_t.dtype)
    out = np.zeros((n_out, a_t.shape[1]), dtype=dtype)  # reprolint: disable=RPL005
    _csr_matvecs(indptr, indices, data, a_t, out)
    return out.T


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of entries with row ids ``rows`` (grouped by row)."""
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


class CsrMatmul:
    """CSR (and transposed CSR) form of a 2-D weight view, mask-structured.

    ``sync`` refreshes the nnz values from the flat dense weight on every
    call (one cached gather per orientation) and rebuilds the index
    structure only when ``version`` changed since the last sync.

    Both products run ``csr_matvecs`` on the stored arrays: ``x @ W.T`` as
    ``W @ x.T`` and ``g @ W`` as ``W.T @ g.T``.  Each row of the result sums
    its terms in ascending column order from zero, the order scipy's
    ``dense @ sparse`` operator uses, so the values are bitwise identical to
    it.  The result is the Fortran-ordered ``.T`` view of a fresh
    C-contiguous array.  Nothing is cached across calls: the output goes to
    autograd, where a reused buffer would be overwritten under a live
    tensor.
    """

    def __init__(self, shape2d: tuple[int, int]):
        self.shape2d = (int(shape2d[0]), int(shape2d[1]))
        self._version = -1
        self.csr: sp.csr_matrix | None = None  # W      (rows, cols)
        self.csr_t: sp.csr_matrix | None = None  # W.T  (cols, rows)
        self._gather: np.ndarray | None = None
        self._perm_t: np.ndarray | None = None

    @property
    def structure_version(self) -> int:
        """Mask version the current index structure was built from."""
        return self._version

    @hot_path
    def sync(self, flat_values: np.ndarray, active_idx: np.ndarray, version: int) -> None:
        if version != self._version:
            self._rebuild(active_idx)
            self._version = version
        np.take(flat_values, self._gather, out=self.csr.data)
        # The transposed values are a permutation of the ones just gathered;
        # permuting the nnz-sized buffer stays cache-resident, unlike a
        # second strided gather from the full dense weight.
        np.take(self.csr.data, self._perm_t, out=self.csr_t.data)

    def _rebuild(self, active_idx: np.ndarray) -> None:
        n_rows, n_cols = self.shape2d
        rows, cols = np.divmod(active_idx, n_cols)
        nnz = int(active_idx.size)

        self.csr = sp.csr_matrix(
            (np.empty(nnz, dtype=np.float32), cols.astype(np.int32), _indptr(rows, n_rows)),
            shape=self.shape2d,
        )
        self._gather = active_idx

        # Transposed structure: the same nnz set ordered by (col, row).
        order = np.lexsort((rows, cols))
        self.csr_t = sp.csr_matrix(
            (np.empty(nnz, dtype=np.float32), rows[order].astype(np.int32), _indptr(cols, n_cols)),
            shape=(n_cols, n_rows),
        )
        self._perm_t = order

        for matrix in (self.csr, self.csr_t):
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True

    @hot_path
    def matmul_xwt(self, x2d: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for ``x`` of shape (N, cols) -> (N, rows), F-ordered."""
        csr = self.csr
        return _csr_product(csr.indptr, csr.indices, csr.data, self.shape2d, x2d)

    @hot_path
    def matmul_gw(self, g2d: np.ndarray) -> np.ndarray:
        """``g @ W`` for ``g`` of shape (N, rows) -> (N, cols), F-ordered."""
        csr_t = self.csr_t
        rows, cols = self.shape2d
        return _csr_product(csr_t.indptr, csr_t.indices, csr_t.data, (cols, rows), g2d)


class BsrMatmul:
    """Block-sparse matmuls for a block-masked 2-D weight view.

    The *bookkeeping* is block-granular: structure rebuilds read the layer's
    sorted active-block set (``O(nnz_blocks)`` triplets maintained by the
    drop-and-grow engine) and expand it to element-level CSR in ``O(nnz)``
    via :func:`repro.sparse.blocks.expand_block_csr` — never a scan of the
    dense mask.  *Execution* calls scipy's ``csr_matvecs`` kernel directly
    on the expanded structure with preallocated C-contiguous operands and
    the sparse operand on the left; on this CPU that direct call beats the
    dense GEMM, the ``dense @ sparse`` operator dispatch (which pays ~0.26
    ms/call in wrapper objects) *and* scipy's own ``bsr_matvecs`` at the
    paper's shapes — see docs/performance.md.

    Both orientations are stored: ``W`` (rows×cols) and ``W.T``, each with a
    cached flat-element gather so a sync refreshes values with two
    ``np.take`` calls and no per-step allocation.  ``csr_matvecs`` computes
    ``Y += A @ X``, so the bias folds into the output initialization for
    free.  Staging and output buffers live in a small per-instance cache
    keyed by name (same step-lifetime contract as
    :class:`~repro.autograd.conv.ConvWorkspace`), except the output of
    :meth:`matmul_wx`, which becomes a tensor's data and is fresh per call.
    """

    def __init__(self, shape2d: tuple[int, int], block_size: int):
        self.shape2d = (int(shape2d[0]), int(shape2d[1]))
        self.block_size = int(block_size)
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        rows, cols = self.shape2d
        if rows % self.block_size or cols % self.block_size:
            raise ValueError(
                f"matrix shape {self.shape2d} is not divisible by "
                f"block_size {self.block_size}"
            )
        self._version = -1
        self._buffers: dict[str, np.ndarray] = {}
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        self._data: np.ndarray | None = None
        self._gather: np.ndarray | None = None
        self._indptr_t: np.ndarray | None = None
        self._indices_t: np.ndarray | None = None
        self._data_t: np.ndarray | None = None
        self._gather_t: np.ndarray | None = None
        self._brows: np.ndarray | None = None
        self._bcols: np.ndarray | None = None
        self._scatter: np.ndarray | None = None
        self._grad_w_stale = False

    @property
    def structure_version(self) -> int:
        """Mask version the current index structure was built from."""
        return self._version

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Cached float32 buffer, reallocated only on shape change."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float32)
            self._buffers[name] = buf
        return buf

    @hot_path
    def sync(self, flat_values: np.ndarray, target: SparseParam) -> None:
        """Refresh values (and structure, iff the mask moved) from ``target``."""
        if target.mask_version != self._version:
            self._rebuild(target.active_blocks)
            self._version = target.mask_version
        np.take(flat_values, self._gather, out=self._data)
        np.take(flat_values, self._gather_t, out=self._data_t)

    def _rebuild(self, active_blocks: np.ndarray) -> None:
        rows, cols = self.shape2d
        b = self.block_size
        block_rows, block_cols = rows // b, cols // b
        indptr, indices, erows = expand_block_csr(active_blocks, block_rows, block_cols, b)
        self._indptr, self._indices = indptr, indices
        self._gather = erows * cols + indices
        self._data = np.empty(indices.size, dtype=np.float32)

        # Transposed structure: the same blocks in the (cols, rows) matrix.
        blocks = np.asarray(active_blocks, dtype=np.int64)
        brow, bcol = np.divmod(blocks, block_cols)
        indptr_t, indices_t, erows_t = expand_block_csr(
            bcol * block_rows + brow, block_cols, block_rows, b
        )
        self._indptr_t, self._indices_t = indptr_t, indices_t
        # W.T[r', c'] = W[c', r']: gather from flat W at c' * cols + r'.
        self._gather_t = indices_t.astype(np.int64) * cols + erows_t
        self._data_t = np.empty(indices_t.size, dtype=np.float32)

        # Per-block coordinates and flat element scatter for the sparse
        # weight-gradient path (active tiles only, sorted block-id order).
        self._brows, self._bcols = brow, bcol
        offsets = (np.arange(b)[:, None] * cols + np.arange(b)[None, :]).reshape(-1)
        top_left = brow * b * cols + bcol * b
        self._scatter = (top_left[:, None] + offsets[None, :]).reshape(-1)
        self._grad_w_stale = True

    def grad_w_buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """Dense weight-gradient buffer whose inactive coordinates are zero.

        :meth:`scatter_grad_w` overwrites the same ``_scatter`` positions
        every step, so between mask rebuilds the buffer only needs zeroing
        once — stale active-tile values are assigned over, everything else
        was zeroed when the structure last changed.
        """
        buf = self._buffers.get("grad_w_sparse")
        if buf is None or buf.shape != shape:
            buf = np.zeros(shape, dtype=np.float32)
            self._buffers["grad_w_sparse"] = buf
        elif self._grad_w_stale:
            buf.fill(0.0)
        self._grad_w_stale = False
        return buf

    # ------------------------------------------------------------------
    # products (sparse operand on the left; operands C-contiguous)
    # ------------------------------------------------------------------
    @hot_path
    def matmul_wx(self, x_t: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
        """``W @ x_t`` (+ broadcast bias) for C-contiguous ``x_t`` of shape
        ``(cols, N)``; returns a fresh C-contiguous ``(rows, N)`` array."""
        rows = self.shape2d[0]
        out = np.empty((rows, x_t.shape[1]), dtype=np.float32)  # reprolint: disable=RPL005
        if bias is not None:
            np.copyto(out, bias.reshape(rows, 1))
        else:
            out.fill(0.0)
        _csr_matvecs(self._indptr, self._indices, self._data, x_t, out)
        return out

    @hot_path
    def matmul_wtg(self, g_t: np.ndarray, reuse: bool = True) -> np.ndarray:
        """``W.T @ g_t`` for C-contiguous ``g_t`` of shape ``(rows, N)``;
        returns ``(cols, N)``.  ``reuse=False`` allocates a fresh output
        (for results the caller may hand to gradient accumulation while an
        earlier accumulation is still pending)."""
        rows, cols = self.shape2d
        if reuse:
            out = self.buffer("wtg", (cols, g_t.shape[1]))
            out.fill(0.0)
        else:
            # Fresh by contract: the caller hands this array to gradient
            # accumulation, so the cached buffer would alias across steps.
            # reprolint: disable-next=RPL005
            out = np.zeros((cols, g_t.shape[1]), dtype=np.float32)
        _csr_matvecs(self._indptr_t, self._indices_t, self._data_t, g_t, out)
        return out

    def scatter_grad_w(self, g_t: np.ndarray, x_t: np.ndarray, grad_w: np.ndarray) -> None:
        """Active-tile weight gradient, scattered into zeroed dense ``grad_w``.

        A sampled dense-dense matmul (SDDMM) at block granularity: tile
        ``(r, c)`` of the gradient is ``g_t[rB:(r+1)B] @ x_t[cB:(c+1)B].T``,
        batched over the active tiles only — ~``density``× the FLOPs of the
        full ``g_tᵀ``-style GEMM.  Only valid when the consumer never reads
        inactive-coordinate gradients (bound sparse optimizer, no growth
        scoring this step); callers gate on ``dense_grads_required``.
        """
        b = self.block_size
        rows, cols = self.shape2d
        g3 = g_t.reshape(rows // b, b, g_t.shape[1])
        x3 = x_t.reshape(cols // b, b, x_t.shape[1])
        tiles = np.matmul(g3[self._brows], x3[self._bcols].transpose(0, 2, 1))
        grad_w.reshape(-1)[self._scatter] = tiles.reshape(-1)


class _KernelBase:
    """Shared dispatch logic: re-evaluate dense-vs-CSR when the mask moves."""

    def __init__(
        self,
        module,
        target: SparseParam,
        mode: str,
        density_threshold: float | None,
        min_size: int | None,
    ):
        self.module = module
        self.target = target
        self.mode = mode
        self.density_threshold = density_threshold
        self.min_size = min_size
        self._choice = "dense"
        self._choice_version = -1

    def backend(self) -> str:
        target = self.target
        if target.mask_version != self._choice_version:
            self._choice = select_backend(
                target.density,
                target.size,
                self.mode,
                self.density_threshold,
                self.min_size,
                block_size=target.block_size,
            )
            self._choice_version = target.mask_version
        return self._choice


class LinearKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Linear`.

    Dispatches per call to the CSR or BSR matmul pair; returns ``None``
    (declining the call, so the module falls back to its dense path) when
    dispatch picks dense or the input is unsupported.  Every output and
    every array a backward closure reads is fresh per call, so the layer
    may run several forwards before one backward (a GAN discriminator
    scoring real and fake batches).
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        self.matmul = CsrMatmul(module.weight.shape)
        self._bsr_matmul: BsrMatmul | None = None

    def _bsr(self) -> BsrMatmul:
        if self._bsr_matmul is None:
            self._bsr_matmul = BsrMatmul(self.module.weight.shape, self.target.block_size)
        return self._bsr_matmul

    def __call__(self, x) -> Tensor | None:
        choice = self.backend()
        if choice == "dense":
            return None
        x = ensure_tensor(x)
        data = x.data
        if data.ndim != 2 or data.dtype != np.float32:
            return None
        if choice == "bsr":
            return self._forward_bsr(x, data)
        return self._forward_csr(x, data)

    def _forward_csr(self, x, data: np.ndarray) -> Tensor:
        weight = self.module.weight
        bias = self.module.bias
        target = self.target
        matmul = self.matmul
        matmul.sync(weight.data.reshape(-1), target.active_indices, target.mask_version)

        out = matmul.matmul_xwt(data)
        if bias is not None:
            np.add(out, bias.data, out=out)

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                # Dense by design: growth rules score inactive weights too.
                weight._accumulate(grad.T @ data)
            if x.requires_grad:
                x._accumulate(matmul.matmul_gw(grad))
            if bias is not None and bias.requires_grad:
                # numpy sums a C-ordered array row by row but an F-ordered
                # one's columns pairwise.  A CSR layer whose output reaches
                # another sparse layer through elementwise ops (the
                # char-GPT's fc -> GELU -> proj) gets its gradient
                # F-ordered, so sum in C order: the rounding then does not
                # depend on the layout.
                # reprolint: disable-next=RPL005
                bias._accumulate(np.ascontiguousarray(grad).sum(axis=0))

        return Tensor._make(out, parents, backward)

    def _forward_bsr(self, x, data: np.ndarray) -> Tensor:
        weight = self.module.weight
        bias = self.module.bias
        matmul = self._bsr()
        matmul.sync(weight.data.reshape(-1), self.target)
        n = data.shape[0]

        # Sparse-left orientation: stage x.T C-contiguous, then
        # out.T = W @ x.T lands C-contiguous and out is its free F view.
        # Both are fresh per call: the output becomes a tensor and the
        # backward reads x.T, so a second forward before the backward must
        # not overwrite either.
        x_t = np.ascontiguousarray(data.T)  # reprolint: disable=RPL005
        out = matmul.matmul_wx(x_t, None if bias is None else bias.data).T

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            g_t = matmul.buffer("gT", (grad.shape[1], n))
            np.copyto(g_t, grad.T)
            if weight.requires_grad:
                if self.target.dense_grads_required:
                    # Dense at update steps: growth scores inactive weights.
                    weight._accumulate(grad.T @ data)
                else:
                    # The zero-once cache, unless a pending accumulation
                    # may already have adopted it as weight.grad (fresh then).
                    if weight.grad is None:
                        grad_w = matmul.grad_w_buffer(weight.shape)
                    else:  # reprolint: disable-next=RPL005
                        grad_w = np.zeros(weight.shape, dtype=np.float32)
                    matmul.scatter_grad_w(g_t, x_t, grad_w)
                    weight._accumulate(grad_w)
            if x.requires_grad:
                # Fresh output when an accumulation is pending (the cached
                # buffer may already be adopted as x.grad).
                gx_t = matmul.matmul_wtg(g_t, reuse=x.grad is None)
                x._accumulate(gx_t.T)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))

        return Tensor._make(out, parents, backward)


def _axis_layout(size: int, kernel: int, stride: int, padding: int):
    """One axis of a :class:`_TapGrid`: ``(out, pad, cell, taps, lengths)``.

    ``taps`` holds ``(tap, phase, shift)`` for each tap some output reads
    inside the image (output ``y`` reads ``stride * (y + shift) + phase``).
    Phase ``a`` has ``lengths[a]`` pixels, ``pad`` into a ``cell``.
    """
    out = (size + 2 * padding - kernel) // stride + 1
    taps = []
    for i in range(kernel):
        shift, phase = divmod(i - padding, stride)
        first = max(0, -shift)  # first output whose read is not before the image
        if first < out and stride * (first + shift) + phase < size:
            taps.append((i, phase, shift))
    pad = max([0] + [-shift for _, _, shift in taps])
    lengths = {phase: len(range(phase, size, stride)) for _, phase, _ in taps}
    past_end = max([0] + [shift for _, _, shift in taps])
    cell = max([out + past_end] + [pad + n for n in lengths.values()])
    return out, pad, cell, taps, lengths


class _TapGrid:
    """Shared-padding grid of one conv input shape (see :class:`Conv2dKernel`).

    The input is staged as its polyphase components ``x[:, :, a::sh,
    b::sw]``, channel-major, one ``(rows, cols)`` cell per image with the
    data at ``(top, left)``.  Cells follow each other without a gap, so
    the zero rows (columns) after one image (row) are the ones before the
    next.  Output pixel ``(y, x)`` sits at cell position ``(y, x)`` of a
    ``(C_out, pitch)`` grid, so each live tap reads its component at one
    flat offset: a contiguous shifted view.  Only taps that read the image
    somewhere are live, and the padding covers just those.
    """

    def __init__(self, x_shape, weight_shape, stride, padding):
        n, c_in, h, w = self.x_shape = x_shape
        _, _, kh, kw = weight_shape
        (sh, sw), (ph, pw) = stride, padding
        self.stride = stride
        self.out_h, self.top, self.rows, taps_h, height = _axis_layout(h, kh, sh, ph)
        self.out_w, self.left, self.cols, taps_w, width = _axis_layout(w, kw, sw, pw)
        self.n = n
        self.pitch = n * self.rows * self.cols
        span = c_in * self.pitch
        phases = sorted({(a, b) for _, a, _ in taps_h for _, b, _ in taps_w})
        # (base, a, b, rows, cols) of each staged component.
        self.comps = [(k * span, a, b, height[a], width[b]) for k, (a, b) in enumerate(phases)]
        # (tap, flat offset of its shifted view) of each live tap.
        shifts = [
            (i * kw + j, phases.index((a, b)) * span, (dy + self.top) * self.cols + dx + self.left)
            for i, a, dy in taps_h
            for j, b, dx in taps_w
        ]
        self.taps = [(t, base + shift) for t, base, shift in shifts]
        # The tail keeps the last view in bounds; a dead-tap view reads
        # offset 0 even when no tap is live.
        tail = max([0] + [shift for _, _, shift in shifts])
        self.size = max(len(phases) * span + tail, self.pitch)
        self.covers = len(phases) == sh * sw
        # Per flattened weight column ``c * K + t``: the offset of channel
        # ``c``'s view under tap ``t``, and whether ``t`` is dead (offset 0).
        tap_offsets = np.zeros(kh * kw, dtype=np.int64)
        dead = np.ones(kh * kw, dtype=bool)
        for t, off in self.taps:
            tap_offsets[t], dead[t] = off, False
        self.has_dead = bool(dead.any())
        self.dead_cols = np.tile(dead, c_in)
        self.col_offsets = (np.arange(c_in)[:, None] * self.pitch + tap_offsets).reshape(-1)
        self.col_offsets[self.dead_cols] = 0

    def shifted(self, flat: np.ndarray, offset: int, channels: int) -> np.ndarray:
        """``(channels, pitch)`` view of the grid starting at ``offset``."""
        return flat[offset : offset + channels * self.pitch].reshape(channels, self.pitch)

    def data(self, flat: np.ndarray, comp, channels: int) -> np.ndarray:
        """The image region of one staged component, ``(C, N, rows, cols)``."""
        base, _, _, rows, cols = comp
        cells = self.shifted(flat, base, channels).reshape(channels, self.n, self.rows, self.cols)
        return cells[:, :, self.top : self.top + rows, self.left : self.left + cols]

    def output(self, grid2d: np.ndarray) -> np.ndarray:
        """The valid ``(C_out, N, out_h, out_w)`` region of an output grid."""
        cells = grid2d.reshape(grid2d.shape[0], self.n, self.rows, self.cols)
        return cells[:, :, : self.out_h, : self.out_w]


def _tap_csr(flat: np.ndarray, shape4d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tap-stacked ``(K*C_out, C_in)`` CSR of a conv weight's active set.

    ``flat`` holds the sorted flat indices of the active weights of a
    ``(C_out, C_in, kh, kw)`` weight.  Returns ``(indptr, indices, gather)``:
    row ``t*C_out + o`` is tap ``t``'s filter ``o``, and
    ``weight.reshape(-1)[gather]`` are the values in CSR order.
    """
    c_out, c_in, kh, kw = shape4d
    k = kh * kw
    co, rest = np.divmod(flat, c_in * k)
    c, t = np.divmod(rest, k)
    order = np.argsort(t, kind="stable")  # by tap, then (c_out, c_in)
    indptr = _indptr(t[order] * c_out + co[order], k * c_out)
    return indptr, c[order].astype(np.int32), flat[order]


@hot_path
def _tap_conv(data, grid: "_TapGrid", csr, bias, x_grid, y_grid, out) -> list:
    """Direct sparse convolution ``out = conv2d(data, W) + bias``.

    ``csr`` is ``(indptr, indices, values)`` of the tap-stacked matrix
    (:func:`_tap_csr`).  ``x_grid`` must be zero outside the image region
    of the grid; ``y_grid`` is ``(C_out, pitch)``.  Each live tap runs one
    ``csr_matvecs`` into the output grid.  Returns the live ``(tap, offset)``
    pairs.
    """
    indptr, indices, values = csr
    c_in, c_out = data.shape[1], y_grid.shape[0]
    sh, sw = grid.stride
    for comp in grid.comps:
        _, a, b, _, _ = comp
        phase = data[:, :, a::sh, b::sw].transpose(1, 0, 2, 3)
        np.copyto(grid.data(x_grid, comp, c_in), phase)
    live = [(t, off) for t, off in grid.taps if indptr[t * c_out] != indptr[(t + 1) * c_out]]
    if bias is None:
        y_grid.fill(0.0)
    else:
        np.copyto(y_grid, bias.reshape(c_out, 1))
    for t, off in live:
        rows = indptr[t * c_out : (t + 1) * c_out + 1]
        _csr_matvecs(rows, indices, values, grid.shifted(x_grid, off, c_in), y_grid)
    np.copyto(out, grid.output(y_grid).transpose(1, 0, 2, 3))
    return live


class _TapCsr:
    """Per-tap CSR slices of a masked ``(C_out, C_in, kh, kw)`` conv weight.

    Tap ``t``'s ``(C_out, C_in)`` slice is rows ``t*C_out:(t+1)*C_out`` of
    one stacked ``(K*C_out, C_in)`` CSR matrix (``K = kh*kw``; see
    :func:`_tap_csr`, ``csr`` holds its arrays), and its transpose rows
    ``t*C_in:(t+1)*C_in`` of a stacked ``(K*C_in, C_out)`` one.  The structure is rebuilt only when the mask version moves and
    values are gathered each forward.  Block-masked layers also keep their
    active tiles for the sampled weight gradient.
    """

    def __init__(self, shape4d: tuple[int, int, int, int], block_size: int):
        self.shape4d = tuple(int(v) for v in shape4d)
        self.block_size = int(block_size)
        self.version = -1

    @hot_path
    def sync(self, flat_values: np.ndarray, target: SparseParam) -> None:
        if target.mask_version != self.version:
            self._rebuild(target)
            self.version = target.mask_version
        np.take(flat_values, self._gather, out=self._data)
        np.take(flat_values, self._gather_t, out=self._data_t)

    def _rebuild(self, target: SparseParam) -> None:
        c_out, c_in, kh, kw = self.shape4d
        k = kh * kw
        flat = target.active_indices
        indptr, indices, self._gather = _tap_csr(flat, self.shape4d)
        self._data = np.empty(flat.size, dtype=np.float32)
        self.csr = (indptr, indices, self._data)
        co, rest = np.divmod(flat, c_in * k)
        c, t = np.divmod(rest, k)
        order = np.lexsort((co, c, t))  # by tap, then (c_in, c_out)
        self._indptr_t = _indptr(t[order] * c_in + c[order], k * c_in)
        self._indices_t = co[order].astype(np.int32)
        self._gather_t = flat[order]
        self._data_t = np.empty(flat.size, dtype=np.float32)
        b = self.block_size
        if b > 1:
            brow, bcol = np.divmod(target.active_blocks, c_in * k // b)
            self.brows = brow
            self.tile_cols = bcol[:, None] * b + np.arange(b)
            rows = brow[:, None] * b + np.arange(b)
            self.scatter = (rows[:, :, None] * (c_in * k) + self.tile_cols[:, None, :]).reshape(-1)

    @hot_path
    def backward(self, t: int, g2d: np.ndarray, out: np.ndarray) -> None:
        """``out += W_t.T @ g2d``: ``(C_out, P)`` -> ``(C_in, P)``."""
        rows = self._indptr_t[t * out.shape[0] : (t + 1) * out.shape[0] + 1]
        _csr_matvecs(rows, self._indices_t, self._data_t, g2d, out)


class Conv2dKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Conv2d`.

    A direct sparse convolution (Park et al., ICLR 2017): the input is
    staged once on a :class:`_TapGrid`, and each live kernel tap multiplies
    its ``(C_out, C_in)`` CSR slice into a shifted view of that grid, all
    taps accumulating into one output grid.  The input gradient runs the
    transposed products into a gradient grid the same way, so nothing is
    expanded im2col-style and nothing is scattered back col2im-style.

    Taps sum in order, each tap's channels in ascending order, so values
    match the dense conv to rounding, not bitwise.  The weight gradient is
    one dense GEMM per live tap, except for a ``"bsr"`` layer between mask
    updates (``dense_grads_required`` cleared): only its active tiles.
    Every buffer lives in the module's ``ConvWorkspace`` (a layer run twice
    before one backward gets a fresh one, see ``ConvWorkspace.claim``).
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        self.taps = _TapCsr(module.weight.shape, target.block_size)
        self._grid: _TapGrid | None = None

    def __call__(self, x) -> Tensor | None:
        choice = self.backend()
        if choice == "dense":
            return None
        x = ensure_tensor(x)
        data = x.data
        if data.ndim != 4 or data.dtype != np.float32:
            return None
        c_in = self.module.weight.shape[1]
        if data.shape[1] != c_in:
            raise ValueError(
                f"conv2d channel mismatch: input has {data.shape[1]}, weight expects {c_in}"
            )
        return self._forward(x, data, tiles=choice == "bsr")

    def _forward(self, x, data: np.ndarray, tiles: bool) -> Tensor:
        module = self.module
        weight = module.weight
        bias = module.bias
        taps = self.taps
        c_out, c_in, kh, kw = weight.shape
        sh, sw = _pair(module.stride)
        workspace = getattr(module, "workspace", None)
        ws = workspace.claim() if workspace is not None else ConvWorkspace()
        taps.sync(weight.data.reshape(-1), self.target)
        grid = self._grid
        if grid is None or grid.x_shape != data.shape:
            stride, padding = (sh, sw), _pair(module.padding)
            grid = self._grid = _TapGrid(data.shape, weight.shape, stride, padding)
        pitch = grid.pitch

        # The padding around the staged input was zeroed at allocation.
        x_grid = ws.zeros("x_grid", (grid.size,), key=data.shape)
        y_grid = ws.get("y_grid", (c_out, pitch))
        out_data = ws.get("out", (data.shape[0], c_out, grid.out_h, grid.out_w))
        live = _tap_conv(
            data, grid, taps.csr, None if bias is None else bias.data, x_grid, y_grid, out_data
        )

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            ws.release()
            # Positions outside the output stay zero, so the products over
            # the whole grid add nothing from them.
            g_grid = ws.zeros("g_grid", (c_out, pitch), key=data.shape)
            np.copyto(grid.output(g_grid), grad.transpose(1, 0, 2, 3))
            if weight.requires_grad:
                if tiles and not self.target.dense_grads_required:
                    grad_w = self._tile_grad_w(g_grid, x_grid, grid, ws)
                else:
                    # Dense at update steps: growth scores inactive weights.
                    grad_w = self._dense_grad_w(g_grid, x_grid, grid, ws)
                weight._accumulate(grad_w)
            if x.requires_grad:
                gx_grid = ws.get("gx_grid", (grid.size,))
                gx_grid.fill(0.0)
                for t, off in live:
                    taps.backward(t, g_grid, grid.shifted(gx_grid, off, c_in))
                grad_ws = _input_grad_workspace(x, ws) or ConvWorkspace()
                grad_x = grad_ws.get("grad_x", data.shape)
                if not grid.covers:
                    grad_x.fill(0.0)
                for comp in grid.comps:
                    _, a, b, _, _ = comp
                    phase = grid.data(gx_grid, comp, c_in).transpose(1, 0, 2, 3)
                    np.copyto(grad_x[:, :, a::sh, b::sw], phase)
                x._accumulate(grad_x)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        out = Tensor._make(out_data, parents, backward)
        ws.hold(out)
        return out

    def _dense_grad_w(self, g_grid, x_grid, grid: _TapGrid, ws) -> np.ndarray:
        """One ``g @ x_tap.T`` GEMM per live tap; dead taps are exactly 0."""
        weight = self.module.weight
        c_out, c_in, kh, kw = weight.shape
        per_tap = ws.get("grad_w_taps", (kh * kw, c_out, c_in))
        if grid.has_dead:
            per_tap.fill(0.0)
        for t, off in grid.taps:
            np.matmul(g_grid, grid.shifted(x_grid, off, c_in).T, out=per_tap[t])
        grad_w = (ws if weight.grad is None else ConvWorkspace()).get("grad_w", weight.shape)
        np.copyto(grad_w.reshape(c_out, c_in, kh * kw), per_tap.transpose(1, 2, 0))
        return grad_w

    def _tile_grad_w(self, g_grid, x_grid, grid: _TapGrid, ws) -> np.ndarray:
        """Active-tile weight gradient (a block SDDMM), zero elsewhere.

        Tile ``(r, j)`` is ``g[rB:(r+1)B] @ X[jB:(j+1)B].T`` where row ``f =
        c * K + t`` of the virtual im2col matrix ``X`` is the shifted view
        of channel ``c`` under tap ``t``: one batched matmul over the
        active tiles, gathering only their views.
        """
        weight = self.module.weight
        taps = self.taps
        b = taps.block_size
        g3 = g_grid.reshape(weight.shape[0] // b, b, grid.pitch)
        cols = taps.tile_cols
        step = x_grid.itemsize  # every view start, without copying
        starts = as_strided(x_grid, (x_grid.size - grid.pitch + 1, grid.pitch), (step, step))
        views = starts[grid.col_offsets[cols]]
        tiles = np.matmul(g3[taps.brows], views.transpose(0, 2, 1))
        if grid.has_dead:
            tiles.transpose(0, 2, 1)[grid.dead_cols[cols]] = 0.0
        # Zeroed when the structure moves; between moves the scatter
        # overwrites the same positions.
        if weight.grad is None:
            grad_w = ws.zeros("grad_w_tiles", weight.shape, key=taps.version)
        else:
            grad_w = np.zeros(weight.shape, dtype=np.float32)
        grad_w.reshape(-1)[taps.scatter] = tiles.reshape(-1)
        return grad_w


def install_training_backends(
    masked: MaskedModel,
    mode: str | None = None,
    density_threshold: float | None = None,
    min_size: int | None = None,
) -> dict[str, str]:
    """Attach kernel backends to every masked Linear/Conv2d of ``masked``.

    Returns the per-layer backend choice at install time (dispatch is
    re-evaluated automatically whenever a layer's mask changes).  With
    ``mode="dense"`` any previously installed backends are removed.
    """
    resolved = resolve_mode(mode)
    by_param = {id(t.param): t for t in masked.targets}
    report: dict[str, str] = {}
    for _, module in masked.model.named_modules():
        if not isinstance(module, (nn.Linear, nn.Conv2d)):
            continue
        target = by_param.get(id(module.weight))
        if target is None:
            continue
        if resolved == "dense":
            module.forward_backend = None
            report[target.name] = "dense"
            continue
        kernel_cls = LinearKernel if isinstance(module, nn.Linear) else Conv2dKernel
        module.forward_backend = kernel_cls(module, target, resolved, density_threshold, min_size)
        report[target.name] = module.forward_backend.backend()
    return report


def install_sparse_backend(controller, optimizer, sparse_backend: str | None) -> None:
    """Install the training kernels for a trainer's sparsity controller.

    A no-op without a backend or a controller.  Looks up
    :func:`install_training_backends` at call time, so a caller may wrap it.
    """
    if sparse_backend is None or controller is None:
        return
    mode = resolve_mode(sparse_backend)
    install_training_backends(controller.masked, mode=mode)
    if mode != "dense":
        # The engine must know the optimizer it is expected to reset for
        # regrown weights: with sparse coordinate updates, stale momentum
        # at dropped coordinates no longer decays on its own.
        if getattr(controller, "optimizer", False) is None:
            controller.optimizer = optimizer
        controller.masked.bind_optimizer(optimizer)


def remove_training_backends(model) -> None:
    """Detach any kernel backends installed on ``model``'s layers."""
    for module in model.modules():
        if isinstance(module, (nn.Linear, nn.Conv2d)):
            module.forward_backend = None
