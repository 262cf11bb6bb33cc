"""Compiled sparse inference: turn a trained MaskedModel into CSR kernels.

Table II reports inference FLOPs of the sparse models; this module makes
those savings *runnable*: after training, :func:`compile_sparse_model`
swaps every masked :class:`~repro.nn.Linear` / :class:`~repro.nn.Conv2d`
for an inference-only replacement whose weight is stored in scipy CSR form,
so the matrix products skip zeros entirely.  At the paper's 90–98%
sparsities this is both smaller (CSR storage ∝ non-zeros) and, for large
enough layers, faster than the dense kernels.

The matmuls route through the same :class:`~repro.sparse.kernels.CsrMatmul`
helper as the training backends: ``x @ W.T`` runs as one direct
``csr_matvecs`` product (``W @ x.T``) into a fresh output per call, with no
scipy operator dispatch and no double-transpose copy of either operand.

Compiled modules are inference-only: they raise if the model is in
training mode, and they do not participate in autograd.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.autograd.conv import _im2col
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.sparse.kernels import CsrMatmul
from repro.sparse.masked import MaskedModel

__all__ = [
    "SparseLinear",
    "SparseConv2d",
    "BlockSparseLinear",
    "BlockSparseConv2d",
    "compile_sparse_model",
    "sparse_storage_bytes",
]


def _frozen_matmul(weight2d: np.ndarray) -> CsrMatmul:
    """Mask-structured CSR pair for a fixed (already masked) 2-D weight."""
    matmul = CsrMatmul(weight2d.shape)
    flat = np.ascontiguousarray(weight2d, dtype=np.float32).reshape(-1)
    matmul.sync(flat, np.flatnonzero(flat != 0.0), version=0)
    return matmul


def _frozen_bsr(
    weight2d: np.ndarray, block_size: int, active_blocks: np.ndarray
) -> "sp.bsr_matrix":
    """BSR matrix for a fixed 2-D weight with a known active-block set.

    The structure comes from the *mask*, not from the values: an active
    block whose weights happen to all be zero stays stored, so the
    export/load round-trip preserves the trained block pattern exactly.
    """
    rows, cols = weight2d.shape
    b = int(block_size)
    block_rows, block_cols = rows // b, cols // b
    blocks = np.asarray(active_blocks, dtype=np.int64)
    brow, bcol = np.divmod(blocks, block_cols)
    tiles = np.ascontiguousarray(
        np.asarray(weight2d, dtype=np.float32)
        .reshape(block_rows, b, block_cols, b)
        .transpose(0, 2, 1, 3)[brow, bcol]
    )
    indptr = np.zeros(block_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(brow, minlength=block_rows), out=indptr[1:])
    return sp.bsr_matrix(
        (tiles, bcol.astype(np.int32), indptr), shape=(rows, cols), blocksize=(b, b)
    )


class SparseLinear(Module):
    """Inference-only linear layer with a CSR weight matrix."""

    def __init__(self, dense: nn.Linear):
        super().__init__()
        self.in_features = dense.in_features
        self.out_features = dense.out_features
        self._matmul = _frozen_matmul(dense.weight.data)
        self.weight_csr = self._matmul.csr
        self.weight_csr_t = self._matmul.csr_t
        self.bias_data = None if dense.bias is None else dense.bias.data.copy()

    @classmethod
    def from_csr(
        cls,
        in_features: int,
        out_features: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
    ) -> "SparseLinear":
        """Rebuild a compiled layer from stored CSR components.

        Serving-artifact round-trip hook: with ``copy=False`` the weight
        matrix aliases the caller's arrays (e.g. read-only views into a
        shared-memory arena), so multiple serving workers share one copy.
        """
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_features = int(in_features)
        layer.out_features = int(out_features)
        layer._matmul = CsrMatmul.from_parts(
            (layer.out_features, layer.in_features), data, indices, indptr, copy=copy
        )
        layer.weight_csr = layer._matmul.csr
        layer.weight_csr_t = layer._matmul.csr_t
        layer.bias_data = None if bias is None else np.array(bias, dtype=np.float32, copy=True)
        layer.eval()
        return layer

    @property
    def nnz(self) -> int:
        return int(self.weight_csr.nnz)

    def shared_matrices(self):
        """(name, scipy matrix) pairs whose arrays workers may share."""
        return (("csr", self.weight_csr), ("csr_t", self.weight_csr_t))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError("SparseLinear is inference-only; call model.eval()")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        out = self._matmul.matmul_xwt(data)
        if self.bias_data is not None:
            np.add(out, self.bias_data, out=out)
        return Tensor(out)

    def __repr__(self) -> str:
        density = self.nnz / (self.in_features * self.out_features)
        return (
            f"SparseLinear(in={self.in_features}, out={self.out_features}, "
            f"nnz={self.nnz}, density={density:.3f})"
        )


class SparseConv2d(Module):
    """Inference-only conv layer: im2col + CSR filter-matrix product."""

    def __init__(self, dense: nn.Conv2d):
        super().__init__()
        self.in_channels = dense.in_channels
        self.out_channels = dense.out_channels
        self.kernel_size = dense.kernel_size
        self.stride = dense.stride
        self.padding = dense.padding
        kh, kw = self.kernel_size
        self._matmul = _frozen_matmul(
            dense.weight.data.reshape(self.out_channels, self.in_channels * kh * kw)
        )
        self.weight_csr = self._matmul.csr
        self.weight_csr_t = self._matmul.csr_t
        self.bias_data = None if dense.bias is None else dense.bias.data.copy()

    @classmethod
    def from_csr(
        cls,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        stride,
        padding,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
    ) -> "SparseConv2d":
        """Rebuild a compiled conv layer from stored CSR components.

        See :meth:`SparseLinear.from_csr`; the CSR matrix here is the
        ``(out_channels, in_channels * kh * kw)`` filter matrix.
        """
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_channels = int(in_channels)
        layer.out_channels = int(out_channels)
        kh, kw = kernel_size
        layer.kernel_size = (int(kh), int(kw))
        layer.stride = tuple(stride) if isinstance(stride, (tuple, list)) else int(stride)
        layer.padding = tuple(padding) if isinstance(padding, (tuple, list)) else int(padding)
        layer._matmul = CsrMatmul.from_parts(
            (layer.out_channels, layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]),
            data,
            indices,
            indptr,
            copy=copy,
        )
        layer.weight_csr = layer._matmul.csr
        layer.weight_csr_t = layer._matmul.csr_t
        layer.bias_data = None if bias is None else np.array(bias, dtype=np.float32, copy=True)
        layer.eval()
        return layer

    @property
    def nnz(self) -> int:
        return int(self.weight_csr.nnz)

    def shared_matrices(self):
        """(name, scipy matrix) pairs whose arrays workers may share."""
        return (("csr", self.weight_csr), ("csr_t", self.weight_csr_t))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError("SparseConv2d is inference-only; call model.eval()")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        kh, kw = self.kernel_size
        stride = self.stride if isinstance(self.stride, tuple) else (self.stride, self.stride)
        padding = self.padding if isinstance(self.padding, tuple) else (self.padding, self.padding)
        cols, _, out_h, out_w = _im2col(data, kh, kw, stride, padding)
        n = data.shape[0]
        cols_mat = np.ascontiguousarray(cols).reshape(n * out_h * out_w, self.in_channels * kh * kw)
        # The product's .T is a fresh C-ordered (out_channels, N*oh*ow) array.
        out_mat = self._matmul.matmul_xwt(cols_mat).T
        out = out_mat.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.bias_data is not None:
            out = out + self.bias_data.reshape(1, -1, 1, 1)
        return Tensor(np.ascontiguousarray(out, dtype=np.float32))

    def __repr__(self) -> str:
        kh, kw = self.kernel_size
        size = self.out_channels * self.in_channels * kh * kw
        return (
            f"SparseConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, nnz={self.nnz}, density={self.nnz / size:.3f})"
        )


class BlockSparseLinear(SparseLinear):
    """Inference-only linear layer with a BSR (block-CSR) weight matrix.

    Produced by :func:`compile_sparse_model` for layers trained with
    ``block_size > 1``: the storage keeps whole ``B x B`` tiles
    (``data (nnzb, B, B)``, block ``indices``/``indptr``), so artifacts
    round-trip the trained block structure and the serving product runs
    block-at-a-time.
    """

    def __init__(self, dense: nn.Linear, block_size: int, active_blocks: np.ndarray):
        Module.__init__(self)
        self.in_features = dense.in_features
        self.out_features = dense.out_features
        self.block_size = int(block_size)
        self.weight_bsr = _frozen_bsr(dense.weight.data, block_size, active_blocks)
        self.bias_data = None if dense.bias is None else dense.bias.data.copy()
        self.eval()

    @classmethod
    def from_bsr(
        cls,
        in_features: int,
        out_features: int,
        block_size: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
    ) -> "BlockSparseLinear":
        """Rebuild a compiled block layer from stored BSR components."""
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_features = int(in_features)
        layer.out_features = int(out_features)
        b = layer.block_size = int(block_size)
        if copy:
            data = np.array(data, dtype=np.float32)
            indices = np.array(indices)
            indptr = np.array(indptr)
        layer.weight_bsr = sp.bsr_matrix(
            (data, indices, indptr),
            shape=(layer.out_features, layer.in_features),
            blocksize=(b, b),
            copy=False,
        )
        layer.bias_data = None if bias is None else np.array(bias, dtype=np.float32)
        layer.eval()
        return layer

    @property
    def nnz(self) -> int:
        return int(self.weight_bsr.nnz)

    def shared_matrices(self):
        return (("bsr", self.weight_bsr),)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError("BlockSparseLinear is inference-only; call model.eval()")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        out = np.ascontiguousarray((self.weight_bsr @ data.T).T, dtype=np.float32)
        if self.bias_data is not None:
            np.add(out, self.bias_data, out=out)
        return Tensor(out)

    def __repr__(self) -> str:
        density = self.nnz / (self.in_features * self.out_features)
        return (
            f"BlockSparseLinear(in={self.in_features}, out={self.out_features}, "
            f"block={self.block_size}, nnz={self.nnz}, density={density:.3f})"
        )


class BlockSparseConv2d(SparseConv2d):
    """Inference-only conv layer: im2col + BSR filter-matrix product."""

    def __init__(self, dense: nn.Conv2d, block_size: int, active_blocks: np.ndarray):
        Module.__init__(self)
        self.in_channels = dense.in_channels
        self.out_channels = dense.out_channels
        self.kernel_size = dense.kernel_size
        self.stride = dense.stride
        self.padding = dense.padding
        self.block_size = int(block_size)
        kh, kw = self.kernel_size
        self.weight_bsr = _frozen_bsr(
            dense.weight.data.reshape(self.out_channels, self.in_channels * kh * kw),
            block_size,
            active_blocks,
        )
        self.bias_data = None if dense.bias is None else dense.bias.data.copy()
        self.eval()

    @classmethod
    def from_bsr(
        cls,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        stride,
        padding,
        block_size: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
    ) -> "BlockSparseConv2d":
        """Rebuild a compiled block conv layer from stored BSR components."""
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_channels = int(in_channels)
        layer.out_channels = int(out_channels)
        kh, kw = kernel_size
        layer.kernel_size = (int(kh), int(kw))
        layer.stride = tuple(stride) if isinstance(stride, (tuple, list)) else int(stride)
        layer.padding = tuple(padding) if isinstance(padding, (tuple, list)) else int(padding)
        b = layer.block_size = int(block_size)
        if copy:
            data = np.array(data, dtype=np.float32)
            indices = np.array(indices)
            indptr = np.array(indptr)
        layer.weight_bsr = sp.bsr_matrix(
            (data, indices, indptr),
            shape=(
                layer.out_channels,
                layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1],
            ),
            blocksize=(b, b),
            copy=False,
        )
        layer.bias_data = None if bias is None else np.array(bias, dtype=np.float32)
        layer.eval()
        return layer

    @property
    def nnz(self) -> int:
        return int(self.weight_bsr.nnz)

    def shared_matrices(self):
        return (("bsr", self.weight_bsr),)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError("BlockSparseConv2d is inference-only; call model.eval()")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        kh, kw = self.kernel_size
        stride = self.stride if isinstance(self.stride, tuple) else (self.stride, self.stride)
        padding = self.padding if isinstance(self.padding, tuple) else (self.padding, self.padding)
        cols, _, out_h, out_w = _im2col(data, kh, kw, stride, padding)
        n = data.shape[0]
        cols_mat = np.ascontiguousarray(cols).reshape(n * out_h * out_w, self.in_channels * kh * kw)
        out_mat = np.ascontiguousarray((self.weight_bsr @ cols_mat.T).T)
        out = out_mat.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if self.bias_data is not None:
            out = out + self.bias_data.reshape(1, -1, 1, 1)
        return Tensor(np.ascontiguousarray(out, dtype=np.float32))

    def __repr__(self) -> str:
        kh, kw = self.kernel_size
        size = self.out_channels * self.in_channels * kh * kw
        return (
            f"BlockSparseConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, block={self.block_size}, "
            f"nnz={self.nnz}, density={self.nnz / size:.3f})"
        )


def compile_sparse_model(masked: MaskedModel) -> Module:
    """Replace every masked Linear/Conv2d in the model with a sparse version.

    The masks are applied first, so the sparse structure matches the
    trained sparsity pattern exactly.  Layers trained with ``block_size >
    1`` compile to BSR (:class:`BlockSparseLinear` /
    :class:`BlockSparseConv2d`); the rest compile to CSR.  Returns the
    (mutated) model in eval mode.  The original :class:`MaskedModel`
    should not be trained afterwards.
    """
    masked.apply_masks()
    targets_by_param = {id(t.param): t for t in masked.targets}
    model = masked.model

    def compile_children(module: Module) -> None:
        for name, child in list(module._modules.items()):
            target = None
            if isinstance(child, (nn.Linear, nn.Conv2d)):
                target = targets_by_param.get(id(child.weight))
            if target is None:
                compile_children(child)
            elif isinstance(child, nn.Linear):
                if target.block_size > 1:
                    module.add_module(
                        name,
                        BlockSparseLinear(child, target.block_size, target.active_blocks),
                    )
                else:
                    module.add_module(name, SparseLinear(child))
            else:
                if target.block_size > 1:
                    module.add_module(
                        name,
                        BlockSparseConv2d(child, target.block_size, target.active_blocks),
                    )
                else:
                    module.add_module(name, SparseConv2d(child))

    compile_children(model)
    model.eval()
    return model


def sparse_storage_bytes(model: Module) -> tuple[int, int]:
    """(sparse bytes, equivalent dense bytes) over all compiled sparse layers."""
    sparse_bytes = 0
    dense_bytes = 0
    for module in model.modules():
        if isinstance(module, (SparseLinear, SparseConv2d)):
            matrix = (
                module.weight_bsr
                if isinstance(module, (BlockSparseLinear, BlockSparseConv2d))
                else module.weight_csr
            )
            sparse_bytes += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            dense_bytes += int(np.prod(matrix.shape)) * 4
    return sparse_bytes, dense_bytes
