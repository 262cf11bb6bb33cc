"""Compiled sparse inference: turn a trained MaskedModel into CSR kernels.

Table II reports inference FLOPs of the sparse models; this module makes
those savings *runnable*: after training, :func:`compile_sparse_model`
swaps every masked :class:`~repro.nn.Linear` / :class:`~repro.nn.Conv2d`
for an inference-only replacement that holds one forward-only CSR matrix,
so the products skip zeros entirely.  At the paper's 90–98% sparsities
this is both smaller (CSR storage ∝ non-zeros) and, for large enough
layers, faster than the dense kernels.

The structure comes from the layer's *mask* (``SparseParam.active_indices``)
at every block size: an active weight that happens to be exactly zero
stays stored, so the trained pattern survives the export/load round-trip.
``block_size`` is recorded on the layer, not a separate class.

The products are the training kernels' own: :class:`SparseLinear` runs the
``csr_matvecs`` product of :class:`~repro.sparse.kernels.LinearKernel`
(bias in the output's initial value), and :class:`SparseConv2d` runs the
direct sparse convolution of :class:`~repro.sparse.kernels.Conv2dKernel`
(one CSR product per kernel tap over a shifted view of the staged input,
no im2col) through the same function, so a compiled layer matches the
training forward bitwise at every block size.
Staging and outputs are allocated per call: one compiled model may serve
several threads at once.

Compiled modules are inference-only: they raise if the model is in
training mode, and they do not participate in autograd.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.autograd.conv import _pair
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.sparse.kernels import _csr_product, _indptr, _tap_conv, _tap_csr, _TapGrid
from repro.sparse.masked import MaskedModel, SparseParam

__all__ = [
    "SparseLinear",
    "SparseConv2d",
    "compile_sparse_model",
    "sparse_storage_bytes",
]


class _SparseLayer(Module):
    """One forward-only CSR matrix ``weight_csr`` plus bias and block size.

    Built from a dense layer and, when given, its mask; without a mask the
    non-zero weights are the structure.  Subclasses set the geometry
    (including ``csr_shape``) and map active flat weight indices to CSR.
    """

    def __init__(self, dense, target: SparseParam | None = None):
        super().__init__()
        self._geometry(dense)
        weight = np.ascontiguousarray(dense.weight.data, dtype=np.float32).reshape(-1)
        active = np.flatnonzero(weight) if target is None else target.active_indices
        indptr, indices, gather = self._structure(active)
        bias = None if dense.bias is None else dense.bias.data.copy()
        block_size = 1 if target is None else target.block_size
        self._attach(weight[gather], indices, indptr, bias, block_size)

    @classmethod
    def from_csr(cls, dense, data, indices, indptr, bias, block_size: int = 1):
        """Layer over stored CSR arrays, aliased rather than copied.

        ``dense`` supplies only the geometry.  Serving-artifact hook: the
        loaded layer serves straight from the arrays the artifact stored.
        """
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer._geometry(dense)
        layer._attach(data, indices, indptr, bias, block_size)
        return layer

    def _attach(self, data, indices, indptr, bias, block_size: int) -> None:
        # Attached by attribute: the triplet constructor canonicalizes (and
        # so copies), which would break aliasing of the stored arrays.
        matrix = sp.csr_matrix(self.csr_shape, dtype=np.float32)
        matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
        self.weight_csr = matrix
        self.bias_data = bias
        self.block_size = int(block_size)
        self.eval()

    @property
    def nnz(self) -> int:
        return int(self.weight_csr.nnz)

    def _input(self, x) -> np.ndarray:
        if self.training:
            raise RuntimeError(f"{type(self).__name__} is inference-only; call model.eval()")
        return x.data if isinstance(x, Tensor) else np.asarray(x)

    def _density(self) -> str:
        size = self.csr_shape[0] * self.csr_shape[1]
        return f"block={self.block_size}, nnz={self.nnz}, density={self.nnz / size:.3f}"


class SparseLinear(_SparseLayer):
    """Inference-only linear layer: ``x @ W.T + b`` as one CSR product."""

    def _geometry(self, dense) -> None:
        self.in_features = int(dense.in_features)
        self.out_features = int(dense.out_features)
        self.csr_shape = (self.out_features, self.in_features)

    def _structure(self, active: np.ndarray):
        rows, cols = np.divmod(active, self.in_features)
        return _indptr(rows, self.out_features), cols.astype(np.int32), active

    def forward(self, x: Tensor) -> Tensor:
        data = self._input(x)
        w = self.weight_csr
        out = _csr_product(w.indptr, w.indices, w.data, self.csr_shape, data, self.bias_data)
        return Tensor(out)

    def __repr__(self) -> str:
        return f"SparseLinear(in={self.in_features}, out={self.out_features}, {self._density()})"


class SparseConv2d(_SparseLayer):
    """Inference-only conv layer: the training kernel's direct sparse conv.

    The matrix is tap-stacked, ``(kh*kw*C_out, C_in)``: rows
    ``t*C_out:(t+1)*C_out`` are kernel tap ``t``'s filter slice.
    """

    def _geometry(self, dense) -> None:
        self.in_channels = int(dense.in_channels)
        self.out_channels = int(dense.out_channels)
        self.kernel_size = _pair(dense.kernel_size)
        self.stride = dense.stride
        self.padding = dense.padding
        kh, kw = self.kernel_size
        self.shape4d = (self.out_channels, self.in_channels, kh, kw)
        self.csr_shape = (kh * kw * self.out_channels, self.in_channels)
        self._grid: _TapGrid | None = None

    def _structure(self, active: np.ndarray):
        return _tap_csr(active, self.shape4d)

    def forward(self, x: Tensor) -> Tensor:
        data = self._input(x)
        if data.ndim != 4 or data.shape[1] != self.in_channels:
            raise ValueError(
                f"conv2d expects (N, {self.in_channels}, H, W) input, got shape {data.shape}"
            )
        grid = self._grid
        if grid is None or grid.x_shape != data.shape:
            stride, padding = _pair(self.stride), _pair(self.padding)
            grid = self._grid = _TapGrid(data.shape, self.shape4d, stride, padding)
        # Fresh per call (thread safety); the grid's padding must be zero.
        x_grid = np.zeros(grid.size, dtype=np.float32)
        y_grid = np.empty((self.out_channels, grid.pitch), dtype=np.float32)
        out = np.empty((data.shape[0], self.out_channels, grid.out_h, grid.out_w), np.float32)
        w = self.weight_csr
        _tap_conv(data, grid, (w.indptr, w.indices, w.data), self.bias_data, x_grid, y_grid, out)
        return Tensor(out)

    def __repr__(self) -> str:
        return (
            f"SparseConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, {self._density()})"
        )


def compile_sparse_model(masked: MaskedModel) -> Module:
    """Replace every masked Linear/Conv2d in the model with a sparse version.

    The masks are applied first, and each layer's CSR structure is its
    mask, so the sparse structure matches the trained sparsity pattern
    exactly at every block size.  Returns the (mutated) model in eval
    mode.  The original :class:`MaskedModel` should not be trained
    afterwards.
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
            else:
                layer_cls = SparseLinear if isinstance(child, nn.Linear) else SparseConv2d
                module.add_module(name, layer_cls(child, target))

    compile_children(model)
    model.eval()
    return model


def sparse_storage_bytes(model: Module) -> tuple[int, int]:
    """(sparse bytes, equivalent dense bytes) over all compiled sparse layers."""
    sparse_bytes = 0
    dense_bytes = 0
    for module in model.modules():
        if isinstance(module, _SparseLayer):
            matrix = module.weight_csr
            sparse_bytes += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            dense_bytes += int(np.prod(matrix.shape)) * 4
    return sparse_bytes, dense_bytes
