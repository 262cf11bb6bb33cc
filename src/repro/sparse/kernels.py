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
  the sparse structure.  The **weight** gradient stays dense — growth rules
  (RigL, DST-EE, SNFS) score *inactive* weights by dense-gradient
  magnitude, so the dense GEMM ``gradᵀ @ x`` is part of the algorithm, not
  overhead.
* A dispatch layer: per layer, ``dense`` vs ``csr``/``bsr`` is
  auto-selected from the layer's density, size and mask granularity; the
  mode and thresholds are overridable per call or process-wide via
  environment variables.

Both matmul orientations use the documented ``dense @ sparse`` product with
a *stored transposed structure* (``W`` and ``W.T`` share their nnz values
through two cached gather permutations), so neither direction pays the
double-transpose copy that a naive ``(csr @ x.T).T`` incurs.  The outputs
are Fortran-contiguous, which makes chained sparse layers copy-free: the
next layer's ``x.T`` ravel is then already C-ordered.

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

from repro import nn
from repro.autograd.conv import (
    _accumulate_grad_w,
    _col2im,
    _col2im_t,
    _contiguous_cols,
    _im2col,
    _input_grad_workspace,
    _pair,
    _stage_grad_mat,
)
from repro.autograd.tensor import Tensor, ensure_tensor
from repro.hotpath import hot_path
from repro.sparse.blocks import expand_block_csr
from repro.sparse.masked import MaskedModel, SparseParam

try:  # pragma: no cover - scipy always ships _sparsetools today
    from scipy.sparse import _sparsetools as _spt
except ImportError:  # pragma: no cover
    _spt = None

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


class CsrMatmul:
    """CSR (and transposed CSR) form of a 2-D weight view, mask-structured.

    ``sync`` refreshes the nnz values from the flat dense weight on every
    call (one cached gather per orientation) and rebuilds the index
    structure only when ``version`` changed since the last sync.
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

    @classmethod
    def from_parts(
        cls,
        shape2d: tuple[int, int],
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        copy: bool = False,
    ) -> "CsrMatmul":
        """Frozen matmul pair rebuilt from stored CSR components.

        Serving-artifact round-trip hook (:mod:`repro.serve.artifact`): the
        exported ``(data, indices, indptr)`` of ``W`` come back as a ready
        :class:`CsrMatmul` whose transposed structure is derived once at
        load time.  With ``copy=False`` the forward matrix aliases the
        caller's arrays (e.g. views into a shared-memory weight arena), so
        N serving workers can share one read-only copy of the weights.

        The result is inference-frozen: :meth:`sync` would rebuild the
        structure from a mask and must not be called on it.
        """
        matmul = cls(shape2d)
        data = np.asarray(data, dtype=np.float32)
        indices = np.asarray(indices, dtype=np.int32)
        indptr = np.asarray(indptr, dtype=np.int32)
        if copy:
            data, indices, indptr = data.copy(), indices.copy(), indptr.copy()
        # Build an empty matrix and attach the arrays by attribute: the
        # component-triplet constructor canonicalizes (and therefore copies),
        # which would break aliasing into a shared-memory arena.
        matmul.csr = sp.csr_matrix(matmul.shape2d, dtype=np.float32)
        matmul.csr.data = data
        matmul.csr.indices = indices
        matmul.csr.indptr = indptr
        matmul.csr_t = matmul.csr.T.tocsr()
        for matrix in (matmul.csr, matmul.csr_t):
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
        matmul._version = 0
        return matmul

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

        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        self.csr = sp.csr_matrix(
            (np.empty(nnz, dtype=np.float32), cols.astype(np.int32), indptr),
            shape=self.shape2d,
        )
        self._gather = active_idx

        # Transposed structure: the same nnz set ordered by (col, row).
        order = np.lexsort((rows, cols))
        t_indptr = np.zeros(n_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=t_indptr[1:])
        self.csr_t = sp.csr_matrix(
            (np.empty(nnz, dtype=np.float32), rows[order].astype(np.int32), t_indptr),
            shape=(n_cols, n_rows),
        )
        self._perm_t = order

        for matrix in (self.csr, self.csr_t):
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True

    # Both products keep the sparse operand on the left internally (scipy's
    # fast path) by routing through the pre-transposed structure.
    @hot_path
    def matmul_xwt(self, x2d: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for row-major ``x`` of shape (N, cols) -> (N, rows)."""
        return np.asarray(x2d @ self.csr_t)

    @hot_path
    def matmul_gw(self, g2d: np.ndarray) -> np.ndarray:
        """``g @ W`` for row-major ``g`` of shape (N, rows) -> (N, cols)."""
        return np.asarray(g2d @ self.csr)


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
    free.  Output buffers live in a small per-instance cache keyed by name
    (same step-lifetime contract as :class:`~repro.autograd.conv.ConvWorkspace`).
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
    def _matvecs(self, n_row, n_col, indptr, indices, data, x2d, out) -> None:
        if _spt is not None:
            _spt.csr_matvecs(
                n_row, n_col, x2d.shape[1], indptr, indices, data, x2d.ravel(), out.ravel()
            )
        else:  # pragma: no cover - exercised only without scipy internals
            csr = sp.csr_matrix((n_row, n_col), dtype=np.float32)
            csr.data, csr.indices, csr.indptr = data, indices, indptr
            csr.has_sorted_indices = True
            csr.has_canonical_format = True
            out += csr @ x2d

    @hot_path
    def matmul_wx(self, x_t: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
        """``W @ x_t`` (+ broadcast bias) for C-contiguous ``x_t`` of shape
        ``(cols, N)``; returns a cached C-contiguous ``(rows, N)`` buffer."""
        rows, cols = self.shape2d
        out = self.buffer("wx", (rows, x_t.shape[1]))
        if bias is not None:
            np.copyto(out, bias.reshape(rows, 1))
        else:
            out.fill(0.0)
        self._matvecs(rows, cols, self._indptr, self._indices, self._data, x_t, out)
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
        self._matvecs(cols, rows, self._indptr_t, self._indices_t, self._data_t, g_t, out)
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


def _zeroed_grad_w(weight, workspace, matmul: BsrMatmul) -> np.ndarray:
    """Zeroed dense weight-gradient buffer for the sparse scatter path.

    Uses the matmul's zero-once cache unless a previous accumulation is
    still pending — the cached buffer may already be adopted as
    ``weight.grad``, and overwriting it in place would corrupt the sum.
    """
    if weight.grad is None:
        return matmul.grad_w_buffer(weight.shape)
    return np.zeros(weight.shape, dtype=np.float32)


class LinearKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Linear`.

    Dispatches per call to the CSR or BSR matmul pair; returns ``None``
    (declining the call, so the module falls back to its dense path) when
    dispatch picks dense or the input is unsupported.
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
                bias._accumulate(grad.sum(axis=0))

        return Tensor._make(out, parents, backward)

    def _forward_bsr(self, x, data: np.ndarray) -> Tensor:
        weight = self.module.weight
        bias = self.module.bias
        matmul = self._bsr()
        matmul.sync(weight.data.reshape(-1), self.target)
        n, in_features = data.shape

        # Sparse-left orientation: stage x.T C-contiguous once, then
        # out.T = W @ x.T lands C-contiguous and out is its free F view.
        x_t = matmul.buffer("xT", (in_features, n))
        np.copyto(x_t, data.T)
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
                    grad_w = _zeroed_grad_w(weight, None, matmul)
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


class Conv2dKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Conv2d`.

    Lowers to im2col exactly like :func:`repro.autograd.conv.conv2d`, but
    the filter-matrix products (forward and input-gradient) run on the
    mask-structured CSR or block-sparse matrices.
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        c_out, c_in, kh, kw = module.weight.shape
        self.matmul = CsrMatmul((c_out, c_in * kh * kw))
        self._bsr_matmul: BsrMatmul | None = None

    def _bsr(self) -> BsrMatmul:
        if self._bsr_matmul is None:
            c_out, c_in, kh, kw = self.module.weight.shape
            self._bsr_matmul = BsrMatmul((c_out, c_in * kh * kw), self.target.block_size)
        return self._bsr_matmul

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
        if choice == "bsr":
            return self._forward_bsr(x, data)
        return self._forward_csr(x, data)

    def _forward_csr(self, x, data: np.ndarray) -> Tensor:
        module = self.module
        weight = module.weight
        bias = module.bias
        target = self.target
        matmul = self.matmul
        c_out, c_in, kh, kw = weight.shape
        stride = _pair(module.stride)
        padding = _pair(module.padding)
        # The module's ConvWorkspace is shared with the dense path: only one
        # path runs per call and both use the same buffer shapes, so flips
        # of the density-based dispatch never grow the cache.
        workspace = getattr(module, "workspace", None)
        matmul.sync(weight.data.reshape(-1), target.active_indices, target.mask_version)

        cols, padded_shape, out_h, out_w = _im2col(data, kh, kw, stride, padding, workspace)
        n = data.shape[0]
        cols_mat = _contiguous_cols(cols, workspace).reshape(n * out_h * out_w, c_in * kh * kw)
        out_mat = matmul.matmul_xwt(cols_mat)  # (N*oh*ow, c_out), scipy-allocated
        if workspace is not None:
            out_data = workspace.get("out", (n, c_out, out_h, out_w), np.float32)
            if out_mat.flags.f_contiguous and not out_mat.flags.c_contiguous:
                # scipy's dense@sparse product is Fortran-ordered; its
                # transpose is then a free C-ordered view to reshape from.
                src = out_mat.T.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
            else:
                src = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
            np.copyto(out_data, src)
            if bias is not None:
                np.add(out_data, bias.data.reshape(1, c_out, 1, 1), out=out_data)
        else:
            out_data = np.ascontiguousarray(out_mat).reshape(n, out_h, out_w, c_out)
            out_data = out_data.transpose(0, 3, 1, 2)
            if bias is not None:
                out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            grad_mat = _stage_grad_mat(grad, n, out_h, out_w, c_out, workspace)
            if weight.requires_grad:
                # Dense by design: growth rules score inactive weights too.
                _accumulate_grad_w(weight, grad_mat, cols_mat, workspace)
            if x.requires_grad:
                # matmul_gw returns scipy's F-ordered product; _col2im needs a
                # C-contiguous 6-D view, so stage the transpose copy into the
                # workspace instead of allocating it fresh every step.
                grad_cols_mat = matmul.matmul_gw(grad_mat)
                if workspace is not None:
                    grad_cols = workspace.get(
                        "csr_grad_cols", grad_cols_mat.shape, np.float32
                    )
                    np.copyto(grad_cols, grad_cols_mat)
                else:
                    # reprolint: disable-next=RPL005
                    grad_cols = np.ascontiguousarray(grad_cols_mat)
                grad_cols = grad_cols.reshape(n, out_h, out_w, c_in, kh, kw)
                x._accumulate(
                    _col2im(
                        grad_cols,
                        padded_shape,
                        kh,
                        kw,
                        stride,
                        padding,
                        x.shape,
                        _input_grad_workspace(x, workspace),
                    )
                )
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        return Tensor._make(out_data, parents, backward)

    def _forward_bsr(self, x, data: np.ndarray) -> Tensor:
        """Block-sparse im2col conv: every filter-matrix product keeps the
        sparse operand on the left over transposed C-contiguous stagings.

        Only the transposed cols matrix ``(C*kh*kw, N*oh*ow)`` is staged —
        the weight gradient GEMM consumes its F-contiguous transpose view
        directly (BLAS handles the flag), so the untransposed copy the CSR
        path makes is never materialized.
        """
        module = self.module
        weight = module.weight
        bias = module.bias
        matmul = self._bsr()
        c_out, c_in, kh, kw = weight.shape
        ckk = c_in * kh * kw
        stride = _pair(module.stride)
        padding = _pair(module.padding)
        workspace = getattr(module, "workspace", None)
        matmul.sync(weight.data.reshape(-1), self.target)

        cols, padded_shape, out_h, out_w = _im2col(data, kh, kw, stride, padding, workspace)
        n = data.shape[0]
        m = n * out_h * out_w
        cols_t = matmul.buffer("colsT", (ckk, m))
        np.copyto(
            cols_t.reshape(c_in, kh, kw, n, out_h, out_w),
            cols.transpose(3, 4, 5, 0, 1, 2),
        )
        out_t = matmul.matmul_wx(
            cols_t, None if bias is None else bias.data
        )  # (c_out, N*oh*ow) C-contiguous
        src = out_t.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
        if workspace is not None:
            out_data = workspace.get("out", (n, c_out, out_h, out_w), np.float32)
            np.copyto(out_data, src)
        else:
            out_data = np.ascontiguousarray(src)

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            grad_mat_t = matmul.buffer("gradT", (c_out, m))
            np.copyto(grad_mat_t.reshape(c_out, n, out_h, out_w), grad.transpose(1, 0, 2, 3))
            if weight.requires_grad:
                if self.target.dense_grads_required:
                    # Dense at update steps: growth scores inactive weights.
                    _accumulate_grad_w(weight, grad_mat_t.T, cols_t.T, workspace)
                else:
                    grad_w = _zeroed_grad_w(weight, workspace, matmul)
                    matmul.scatter_grad_w(grad_mat_t, cols_t, grad_w)
                    weight._accumulate(grad_w)
            if x.requires_grad:
                grad_cols_t = matmul.matmul_wtg(grad_mat_t)  # (ckk, N*oh*ow)
                x._accumulate(
                    _col2im_t(
                        grad_cols_t.reshape(c_in, kh, kw, n, out_h, out_w),
                        padded_shape,
                        kh,
                        kw,
                        stride,
                        padding,
                        x.shape,
                        _input_grad_workspace(x, workspace),
                    )
                )
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        return Tensor._make(out_data, parents, backward)


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
