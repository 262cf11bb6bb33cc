"""Training-time sparse kernel backends for masked Linear/Conv2d layers.

The drop-and-grow engine keeps masks as dense booleans, but at the paper's
90–98% sparsities the *compute* should exploit the sparse structure too
(RigL and the Graphcore dynamic-sparsity stack both make this point).  This
module provides that compute path for **training**:

* :class:`CsrMatmul` — a mask-structured CSR form of one 2-D weight view,
  at every block size: a ``B×B``-tiled mask is simply a mask whose active
  set comes in whole tiles, so its CSR holds the expanded tiles in flat
  index order.  The structure (``indices``/``indptr`` plus the
  value-gather permutations) is rebuilt only when the owning layer's
  ``mask_version`` changes, i.e. only for layers whose masks actually
  moved in a drop-and-grow round; values are refreshed from the dense
  parameter by a single ``np.take`` into the preallocated CSR ``data``
  arrays — no per-step allocation.
* :class:`LinearKernel` / :class:`Conv2dKernel` — backend objects installed
  on ``module.forward_backend`` (see :mod:`repro.nn.linear` /
  :mod:`repro.nn.conv`).  They run the masked forward through the sparse
  products and register an autograd closure whose input gradient also uses
  the sparse structure.  The conv kernel is a direct sparse convolution:
  one CSR product per kernel tap over a shifted view of the input, with no
  im2col.  The compiled serving layers (:mod:`repro.sparse.inference`)
  run the same forwards, ``_csr_product`` and ``_tap_conv``.  The
  **weight** gradient is dense whenever growth may read it
  (``SparseParam.dense_grads_required``): growth rules (RigL, DST-EE,
  SNFS) score *inactive* weights by dense-gradient magnitude, so that GEMM
  is part of the algorithm.  Between mask updates a layer dispatched to
  ``"bsr"`` (a block-masked layer) computes only its active tiles (a
  block-sampled dense-dense matmul, SDDMM); ``"csr"`` layers stay dense
  every step (an element SDDMM is slower than the GEMM in numpy).
* A dispatch layer: per layer, ``dense`` vs ``csr``/``bsr`` is
  auto-selected from the layer's density, size and block size; the mode
  (``auto``, ``dense``, ``csr`` or ``bsr``) and the thresholds are
  overridable per call.

Every product calls scipy's ``csr_matvecs`` kernel directly with the
sparse operand on the left (``Y += A @ X`` over C-contiguous operands),
which skips the per-call wrapper objects, transposes and ravel copies of
scipy's ``dense @ sparse`` operator.  Each orientation reads its own stored
structure (``W`` and ``W.T`` share their nnz values through cached gather
permutations).  A bias goes into the output's initial value, so ``Y = b +
A @ X`` costs no extra pass.  The products return the Fortran-ordered
``.T`` view of a C-contiguous ``(rows, N)`` result, so a chained sparse
layer receives an input whose transpose is already C-contiguous and needs
no staging copy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.sparse import _sparsetools

from repro import nn
from repro.autograd.conv import _pair
from repro.autograd.tensor import Tensor, ensure_tensor
from repro.hotpath import hot_path
from repro.sparse.masked import MaskedModel, SparseParam

__all__ = [
    "DEFAULT_DENSITY_THRESHOLD",
    "DEFAULT_MIN_SIZE",
    "MODES",
    "CsrMatmul",
    "LinearKernel",
    "Conv2dKernel",
    "resolve_mode",
    "select_backend",
    "install_sparse_backend",
    "install_training_backends",
    "remove_training_backends",
]

# On this CPU the scipy CSR kernels run ~7x fewer effective FLOP/s than the
# dense BLAS GEMM, so CSR wins once it does ~7x less work; 0.12 leaves some
# margin (90/95/98% sparsity -> CSR, 80% -> dense).  See docs/performance.md.
DEFAULT_DENSITY_THRESHOLD = 0.12
# Below this weight size the per-call overhead dominates; stay dense.
DEFAULT_MIN_SIZE = 16384

MODES = ("auto", "dense", "csr", "bsr")


def resolve_mode(mode: str | None = None) -> str:
    """The validated, lower-cased ``mode``; ``None`` means ``auto``."""
    resolved = "auto" if mode is None else mode.lower()
    if resolved not in MODES:
        raise ValueError(f"unknown sparse backend {resolved!r}; choose from {MODES}")
    return resolved


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
        density_threshold = DEFAULT_DENSITY_THRESHOLD
    if min_size is None:
        min_size = DEFAULT_MIN_SIZE
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
def _staged(a2d: np.ndarray, n_col: int) -> np.ndarray:
    """``a2d.T`` as a C-contiguous ``(n_col, N)`` operand.

    ``csr_matvecs`` indexes the operand with the stored column indices and
    checks no bounds, so the operand's width is checked here.  A
    Fortran-ordered ``a2d`` (the output of a previous sparse product) is
    already C-contiguous when transposed and is not copied.
    """
    if a2d.ndim != 2 or a2d.shape[1] != n_col:
        raise ValueError(
            f"dimension mismatch: sparse product expects a 2-D operand with "
            f"{n_col} columns, got shape {a2d.shape}"
        )
    # Never a reused buffer: a backward closure may hold the staged operand.
    return np.ascontiguousarray(a2d.T)  # reprolint: disable=RPL005


@hot_path
def _csr_product_t(indptr, indices, data, n_out: int, a_t: np.ndarray, bias=None) -> np.ndarray:
    """``A @ a_t`` (+ ``bias`` down each row) as a C-contiguous ``(n_out, N)``.

    The bias is the output's initial value; each row then sums its terms
    in ascending column order.
    """
    dtype = np.promote_types(data.dtype, a_t.dtype)
    # Fresh per call: the result is handed to autograd or to a serving caller.
    out = np.empty((n_out, a_t.shape[1]), dtype=dtype)  # reprolint: disable=RPL005
    if bias is None:
        out.fill(0.0)
    else:
        np.copyto(out, bias.reshape(n_out, 1))
    _csr_matvecs(indptr, indices, data, a_t, out)
    return out


@hot_path
def _csr_product(indptr, indices, data, shape: tuple[int, int], a2d, bias=None) -> np.ndarray:
    """``(A @ a2d.T).T + bias`` for the CSR matrix ``A`` of shape ``shape``."""
    a_t = _staged(a2d, shape[1])
    return _csr_product_t(indptr, indices, data, shape[0], a_t, bias).T


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of entries with row ids ``rows`` (grouped by row)."""
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


def _tiles(active_idx: np.ndarray, n_cols: int, b: int):
    """Active ``B×B`` tiles of a tiled ``(rows, n_cols)`` mask, in block-id order.

    ``active_idx`` holds the sorted flat indices of the active weights; a
    tile's top-left element marks it.  Returns ``(block_rows, tile_cols,
    scatter)``: each tile's block row, its ``B`` element columns, and the
    flat indices of its elements, row-major within each tile.
    """
    rows, cols = np.divmod(active_idx, n_cols)
    corner = (rows % b == 0) & (cols % b == 0)
    block_rows = rows[corner] // b
    tile_cols = cols[corner][:, None] + np.arange(b)
    tile_rows = block_rows[:, None] * b + np.arange(b)
    scatter = (tile_rows[:, :, None] * n_cols + tile_cols[:, None, :]).reshape(-1)
    return block_rows, tile_cols, scatter


class CsrMatmul:
    """CSR (and transposed CSR) form of a 2-D weight view, mask-structured.

    ``sync`` refreshes the nnz values from the flat dense weight on every
    call (one cached gather per orientation) and rebuilds the index
    structure only when ``version`` changed since the last sync.  A
    ``block_size`` of ``B`` declares the mask tiled in ``B×B`` blocks; it
    only matters to the active-tile weight gradient
    (:meth:`scatter_grad_w`).

    Both products run ``csr_matvecs`` on the stored arrays: ``x @ W.T`` as
    ``W @ x.T`` and ``g @ W`` as ``W.T @ g.T``.  Each row of the result sums
    its terms in ascending column order from its initial value (zero, or
    the bias), the order scipy's ``dense @ sparse`` operator uses, so
    without a bias the values are bitwise identical to it.  Results are
    fresh per call: they go to autograd, where a reused buffer would be
    overwritten under a live tensor.
    """

    def __init__(self, shape2d: tuple[int, int], block_size: int = 1):
        self.shape2d = (int(shape2d[0]), int(shape2d[1]))
        self.block_size = int(block_size)
        self._version = -1
        self.csr: sp.csr_matrix | None = None  # W      (rows, cols)
        self.csr_t: sp.csr_matrix | None = None  # W.T  (cols, rows)
        self._gather: np.ndarray | None = None
        self._perm_t: np.ndarray | None = None
        self._tile_set = None
        self._tile_set_version = -1
        self._grad_w: np.ndarray | None = None
        self._grad_w_version = -1

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
    def wx(self, x_t: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
        """``W @ x_t`` (+ bias) for a staged ``(cols, N)`` operand -> ``(rows, N)``."""
        csr = self.csr
        return _csr_product_t(csr.indptr, csr.indices, csr.data, self.shape2d[0], x_t, bias)

    @hot_path
    def wtg(self, g_t: np.ndarray) -> np.ndarray:
        """``W.T @ g_t`` for a staged ``(rows, N)`` operand -> ``(cols, N)``."""
        csr_t = self.csr_t
        return _csr_product_t(csr_t.indptr, csr_t.indices, csr_t.data, self.shape2d[1], g_t)

    @hot_path
    def matmul_xwt(self, x2d: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for ``x`` of shape (N, cols) -> (N, rows), F-ordered."""
        return self.wx(_staged(x2d, self.shape2d[1])).T

    @hot_path
    def matmul_gw(self, g2d: np.ndarray) -> np.ndarray:
        """``g @ W`` for ``g`` of shape (N, rows) -> (N, cols), F-ordered."""
        return self.wtg(_staged(g2d, self.shape2d[0])).T

    def grad_w_buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """Dense weight-gradient buffer whose inactive coordinates are zero.

        :meth:`scatter_grad_w` overwrites the same active-tile positions
        every step, so between structure rebuilds the buffer only needs
        zeroing once.
        """
        buf = self._grad_w
        if buf is None or buf.shape != shape:
            buf = self._grad_w = np.zeros(shape, dtype=np.float32)
        elif self._grad_w_version != self._version:
            buf.fill(0.0)
        self._grad_w_version = self._version
        return buf

    @hot_path
    def scatter_grad_w(self, g_t: np.ndarray, x_t: np.ndarray, grad_w: np.ndarray) -> None:
        """Active-tile weight gradient, scattered into zeroed dense ``grad_w``.

        A sampled dense-dense matmul (SDDMM) at block granularity: tile
        ``(r, c)`` of the gradient is ``g_t[rB:(r+1)B] @ x_t[cB:(c+1)B].T``,
        batched over the active tiles only — ~``density``× the FLOPs of the
        full GEMM.  Only valid when the consumer never reads
        inactive-coordinate gradients (bound sparse optimizer, no growth
        scoring this step); callers gate on ``dense_grads_required``.
        """
        b = self.block_size
        if self._tile_set_version != self._version:
            self._tile_set = _tiles(self._gather, self.shape2d[1], b)
            self._tile_set_version = self._version
        block_rows, tile_cols, scatter = self._tile_set
        g3 = g_t.reshape(self.shape2d[0] // b, b, g_t.shape[1])
        tiles = np.matmul(g3[block_rows], x_t[tile_cols].transpose(0, 2, 1))
        grad_w.reshape(-1)[scatter] = tiles.reshape(-1)


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

    One forward at every block size: stage ``x.T`` once, then one
    :class:`CsrMatmul` product with the bias in the output's initial value.
    The input gradient is the transposed product.  The weight gradient is
    the dense ``grad.T @ x`` unless the layer dispatched to ``"bsr"`` and
    ``dense_grads_required`` is clear; then it is the active-tile SDDMM.
    Returns ``None`` (declining the call, so the module falls back to its
    dense path) when dispatch picks dense or the input is unsupported.
    Every output and every array a backward closure reads is fresh per
    call, so the layer may run several forwards before one backward (a GAN
    discriminator scoring real and fake batches).
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        self.matmul = CsrMatmul(module.weight.shape, target.block_size)

    def __call__(self, x) -> Tensor | None:
        choice = self.backend()
        if choice == "dense":
            return None
        x = ensure_tensor(x)
        data = x.data
        if data.ndim != 2 or data.dtype != np.float32:
            return None
        return self._forward(x, data, tiles=choice == "bsr")

    @hot_path
    def _forward(self, x, data: np.ndarray, tiles: bool) -> Tensor:
        weight = self.module.weight
        bias = self.module.bias
        target = self.target
        matmul = self.matmul
        rows, cols = matmul.shape2d
        matmul.sync(weight.data.reshape(-1), target.active_indices, target.mask_version)
        x_t = _staged(data, cols)
        out = matmul.wx(x_t, None if bias is None else bias.data).T
        # Only the tile gradient reads the staged input; drop it otherwise
        # instead of holding a copy until the backward.
        tile_x = x_t if tiles else None

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            g_t = _staged(grad, rows)
            if weight.requires_grad:
                if tiles and not target.dense_grads_required:
                    # The zero-once cache, unless a pending accumulation
                    # may already have adopted it as weight.grad (fresh then).
                    if weight.grad is None:
                        grad_w = matmul.grad_w_buffer(weight.shape)
                    else:  # reprolint: disable-next=RPL005
                        grad_w = np.zeros(weight.shape, dtype=np.float32)
                    matmul.scatter_grad_w(g_t, tile_x, grad_w)
                    weight._accumulate(grad_w)
                else:
                    # Dense at update steps: growth scores inactive weights.
                    weight._accumulate(grad.T @ data)
            if x.requires_grad:
                x._accumulate(matmul.wtg(g_t).T)
            if bias is not None and bias.requires_grad:
                # Summed over the staged C-contiguous copy: the rounding
                # does not depend on the layout ``grad`` arrived in.
                bias._accumulate(g_t.sum(axis=1))

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
    ``t*C_in:(t+1)*C_in`` of a stacked ``(K*C_in, C_out)`` one.  The
    structure is rebuilt only when the mask version moves, together with
    the active ``B×B`` tiles (:func:`_tiles`) of the sampled weight
    gradient; values are gathered each forward.
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
        self.tiles = _tiles(flat, c_in * k, self.block_size)

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
    Every buffer is allocated per call, as in the compiled serving layer.
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        self.taps = _TapCsr(module.weight.shape, target.block_size)
        self._grid: _TapGrid | None = None
        self._live = None

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
        taps.sync(weight.data.reshape(-1), self.target)
        grid = self._grid
        if grid is None or grid.x_shape != data.shape:
            stride, padding = (sh, sw), _pair(module.padding)
            grid = self._grid = _TapGrid(data.shape, weight.shape, stride, padding)
        pitch = grid.pitch

        # The padding around the staged input stays zero.
        x_grid = np.zeros(grid.size, dtype=np.float32)
        y_grid = np.empty((c_out, pitch), dtype=np.float32)
        out_data = np.empty((data.shape[0], c_out, grid.out_h, grid.out_w), dtype=np.float32)
        live = _tap_conv(
            data, grid, taps.csr, None if bias is None else bias.data, x_grid, y_grid, out_data
        )

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            # Every grid here is fresh and dies with the step: caching them
            # in a per-layer workspace measured slower (0.79-0.97x steps/s)
            # and held ~40 MiB more peak RSS on the VGG-19 benchmark.
            # Positions outside the output stay zero, so the products over
            # the whole grid add nothing from them.
            # reprolint: disable-next=RPL005
            g_grid = np.zeros((c_out, pitch), dtype=np.float32)
            np.copyto(grid.output(g_grid), grad.transpose(1, 0, 2, 3))
            if weight.requires_grad:
                if tiles and not self.target.dense_grads_required:
                    grad_w = self._tile_grad_w(g_grid, x_grid, grid)
                else:
                    # Dense at update steps: growth scores inactive weights.
                    grad_w = self._dense_grad_w(g_grid, x_grid, grid)
                weight._accumulate(grad_w)
            if x.requires_grad:
                # reprolint: disable-next=RPL005
                gx_grid = np.zeros(grid.size, dtype=np.float32)
                for t, off in live:
                    taps.backward(t, g_grid, grid.shifted(gx_grid, off, c_in))
                # reprolint: disable-next=RPL005
                grad_x = np.empty(data.shape, dtype=np.float32)
                if not grid.covers:
                    grad_x.fill(0.0)
                for comp in grid.comps:
                    _, a, b, _, _ = comp
                    phase = grid.data(gx_grid, comp, c_in).transpose(1, 0, 2, 3)
                    np.copyto(grad_x[:, :, a::sh, b::sw], phase)
                x._accumulate(grad_x)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        return Tensor._make(out_data, parents, backward)

    def _dense_grad_w(self, g_grid, x_grid, grid: _TapGrid) -> np.ndarray:
        """One ``g @ x_tap.T`` GEMM per live tap; dead taps are exactly 0."""
        weight = self.module.weight
        c_out, c_in, kh, kw = weight.shape
        per_tap = np.empty((kh * kw, c_out, c_in), dtype=np.float32)
        if grid.has_dead:
            per_tap.fill(0.0)
        for t, off in grid.taps:
            np.matmul(g_grid, grid.shifted(x_grid, off, c_in).T, out=per_tap[t])
        grad_w = np.empty(weight.shape, dtype=np.float32)
        np.copyto(grad_w.reshape(c_out, c_in, kh * kw), per_tap.transpose(1, 2, 0))
        return grad_w

    def _live_tiles(self, grid: _TapGrid):
        """Active tiles with a live column, cached per (structure, H×W).

        A tile whose columns all belong to dead taps has an exactly-zero
        gradient, so it is skipped.  Returns ``(block_rows, tile_cols,
        scatter, dead)`` with ``dead`` the dead columns of each kept tile.
        """
        key = (self.taps.version, grid.x_shape[2:])
        if self._live is None or self._live[0] != key:
            block_rows, tile_cols, scatter = self.taps.tiles
            dead = grid.dead_cols[tile_cols]
            keep = ~dead.all(axis=1)
            scatter = scatter.reshape(keep.size, tile_cols.shape[1] ** 2)[keep].reshape(-1)
            self._live = (key, block_rows[keep], tile_cols[keep], scatter, dead[keep])
        return self._live[1:]

    def _tile_grad_w(self, g_grid, x_grid, grid: _TapGrid) -> np.ndarray:
        """Active-tile weight gradient (a block SDDMM), zero elsewhere.

        Tile ``(r, j)`` is ``g[rB:(r+1)B] @ X[jB:(j+1)B].T`` where row ``f =
        c * K + t`` of the virtual im2col matrix ``X`` is the shifted view
        of channel ``c`` under tap ``t``: one batched matmul over the
        active tiles that read the image, gathering only their views.
        """
        weight = self.module.weight
        b = self.taps.block_size
        block_rows, cols, scatter, dead = self._live_tiles(grid)
        g3 = g_grid.reshape(weight.shape[0] // b, b, grid.pitch)
        step = x_grid.itemsize  # every view start, without copying
        starts = as_strided(x_grid, (x_grid.size - grid.pitch + 1, grid.pitch), (step, step))
        views = starts[grid.col_offsets[cols]]
        tiles = np.matmul(g3[block_rows], views.transpose(0, 2, 1))
        if grid.has_dead:
            tiles.transpose(0, 2, 1)[dead] = 0.0
        grad_w = np.zeros(weight.shape, dtype=np.float32)
        grad_w.reshape(-1)[scatter] = tiles.reshape(-1)
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
