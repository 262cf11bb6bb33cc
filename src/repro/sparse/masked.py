"""Mask bookkeeping: which parameters are sparsified, and their masks.

:class:`MaskedModel` walks a model, selects the sparsifiable weights
(Linear/Conv2d/Embedding ``weight`` tensors by default — biases and norm
parameters stay dense, as in RigL/ITOP/the paper), assigns each a boolean
mask drawn
from a layer-wise density distribution, and enforces the masks on the weight
values.  All sparsifiers (dynamic, static, dense-to-sparse, ADMM) operate
through this class, so the sparsity invariants live in exactly one place.

Masks are *versioned*: every replacement bumps ``mask_version`` and drops
the cached flat active/inactive index sets, so CSR kernel structures (see
:mod:`repro.sparse.kernels`) rebuild only for layers whose masks actually
changed, and index lookups between mask edits are O(1).  Code that mutates
a mask in place (the drop-and-grow engine, GMP) must report the edit via
:meth:`SparseParam.mark_mask_dirty`.

With ``block_size > 1`` a layer's mask is constrained to ``B×B`` tiles of
its 2-D weight view (:mod:`repro.sparse.blocks`); the dense boolean mask
stays the canonical representation (checkpoints, coverage counters and
worker resyncs are unchanged), while drop-and-grow edits go through
:meth:`SparseParam.drop_blocks` / :meth:`SparseParam.grow_blocks`, which
maintain the sorted active-block set in ``O(nnz_blocks)``.  Layers whose
2-D view is not divisible by the block size (e.g. the first conv with 3
input channels) fall back to ``block_size=1``, i.e. unstructured.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from repro import nn
from repro.nn.module import Module, Parameter
from repro.sparse.blocks import BlockMask, MatrixBlockIndexer
from repro.sparse.budget import DensityBudget
from repro.sparse.distribution import block_budget, layer_densities
from repro.rng import resolve_rng

__all__ = [
    "BLOCK_SIZE_ENV",
    "resolve_block_size",
    "SparseParam",
    "MaskedModel",
    "collect_sparsifiable",
]

BLOCK_SIZE_ENV = "REPRO_SPARSE_BLOCK_SIZE"


def resolve_block_size(block_size: int | None = None) -> int:
    """Explicit argument > ``REPRO_SPARSE_BLOCK_SIZE`` env var > 1."""
    if block_size is None:
        block_size = int(os.environ.get(BLOCK_SIZE_ENV, "1"))
    block_size = int(block_size)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return block_size


class SparseParam:
    """One sparsified weight tensor and its mask/bookkeeping state."""

    __slots__ = (
        "name",
        "param",
        "_target_density",
        "block_size",
        "indexer",
        "_mask",
        "_mask_version",
        "_active_idx",
        "_inactive_idx",
        "_active_blocks",
        "dense_grads_required",
    )

    def __init__(
        self,
        name: str,
        param: Parameter,
        mask: np.ndarray,
        target_density: float,
        block_size: int = 1,
    ):
        self.name = name
        self.param = param
        self._target_density = float(target_density)
        self.block_size = int(block_size)
        rows, cols = self.shape2d
        self.indexer = (
            MatrixBlockIndexer(rows, cols, self.block_size)
            if self.block_size > 1
            else None
        )
        self._mask = np.ascontiguousarray(mask, dtype=bool)
        self._mask_version = 0
        self._active_idx: np.ndarray | None = None
        self._inactive_idx: np.ndarray | None = None
        self._active_blocks: np.ndarray | None = None
        # Kernel backward contract: True (default, always safe) computes the
        # full dense weight gradient; a controller whose growth rule only
        # consults dense gradients at mask-update steps may clear it for
        # the in-between steps (see DynamicSparseEngine.before_backward),
        # letting block kernels compute active-tile gradients only.
        self.dense_grads_required = True
        if self.indexer is not None:
            # Fail at construction, not first use, if the mask isn't tiled.
            self.active_blocks  # noqa: B018 - validates block structure

    def __repr__(self) -> str:
        return (
            f"SparseParam(name={self.name!r}, shape={self.param.shape}, "
            f"density={self.density:.4f}, block_size={self.block_size})"
        )

    @property
    def target_density(self) -> float:
        """Budget-derived density this layer trains at.

        Read-only by design: the layer density is owned by the
        :class:`~repro.sparse.budget.DensityBudget` (``masked.budget``) and
        only :mod:`repro.sparse.budget` may write it (reprolint RPL007).
        """
        return self._target_density

    @property
    def shape2d(self) -> tuple[int, int]:
        """The 2-D matrix view the kernels (and block tiling) operate on."""
        shape = self.param.shape
        return int(shape[0]), int(self.param.size // shape[0])

    # ------------------------------------------------------------------
    # mask access & versioning
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @mask.setter
    def mask(self, value: np.ndarray) -> None:
        self._mask = np.ascontiguousarray(value, dtype=bool)
        self.mark_mask_dirty()

    @property
    def mask_version(self) -> int:
        """Monotonic counter; changes iff the mask may have changed."""
        return self._mask_version

    def mark_mask_dirty(self) -> None:
        """Invalidate cached index sets after an in-place mask edit."""
        self._mask_version += 1
        self._active_idx = None
        self._inactive_idx = None
        self._active_blocks = None

    @property
    def active_indices(self) -> np.ndarray:
        """Sorted flat indices of active weights (cached between edits)."""
        if self._active_idx is None:
            self._active_idx = np.flatnonzero(self._mask)
        return self._active_idx

    @property
    def inactive_indices(self) -> np.ndarray:
        """Sorted flat indices of inactive weights (cached between edits)."""
        if self._inactive_idx is None:
            self._inactive_idx = np.flatnonzero(~self._mask)
        return self._inactive_idx

    # ------------------------------------------------------------------
    # block granularity (block_size > 1 only)
    # ------------------------------------------------------------------
    @property
    def active_blocks(self) -> np.ndarray:
        """Sorted flat ids of active tiles (cached between edits).

        Derived from the canonical dense mask, validating along the way
        that every tile is all-active or all-inactive — a partially active
        tile means element-granular code edited a block-structured mask.
        """
        if self.indexer is None:
            raise ValueError(f"{self.name!r} is unstructured (block_size=1)")
        if self._active_blocks is None:
            rows, cols = self.shape2d
            block = BlockMask.from_dense(self.indexer, self._mask.reshape(rows, cols))
            self._active_blocks = block.active_blocks
        return self._active_blocks

    @property
    def inactive_blocks(self) -> np.ndarray:
        """Sorted flat ids of inactive tiles (recomputed per mask edit)."""
        scratch = np.ones(self.indexer.n_blocks, dtype=bool)
        scratch[self.active_blocks] = False
        return np.flatnonzero(scratch)

    @property
    def active_block_count(self) -> int:
        return int(self.active_blocks.size)

    def drop_blocks(self, block_idx: np.ndarray) -> np.ndarray:
        """Deactivate whole tiles; returns their flat element indices.

        ``block_idx`` must be currently active.  Hash-based ``setdiff1d``
        dominated mask-update profiles, so the sorted active set is edited
        with a ``searchsorted`` membership mask instead (``O(nnz_blocks)``).
        """
        element_idx = self.indexer.expand_blocks(block_idx).reshape(-1)
        active = self.active_blocks
        keep = np.ones(active.size, dtype=bool)
        keep[np.searchsorted(active, np.asarray(block_idx, dtype=np.int64))] = False
        new_active = active[keep]
        self._mask.reshape(-1)[element_idx] = False
        self.mark_mask_dirty()
        self._active_blocks = new_active
        return element_idx

    def grow_blocks(self, block_idx: np.ndarray) -> np.ndarray:
        """Activate whole tiles; returns their flat element indices.

        ``block_idx`` must be currently inactive, so the union is a plain
        sorted merge — no hash-based ``union1d``.
        """
        element_idx = self.indexer.expand_blocks(block_idx).reshape(-1)
        merged = np.concatenate(
            (self.active_blocks, np.asarray(block_idx, dtype=np.int64).reshape(-1))
        )
        merged.sort()
        self._mask.reshape(-1)[element_idx] = True
        self.mark_mask_dirty()
        self._active_blocks = merged
        return element_idx

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.param.size

    @property
    def active_count(self) -> int:
        return int(self.active_indices.size)

    @property
    def density(self) -> float:
        return self.active_count / self.size

    # ------------------------------------------------------------------
    # invariant enforcement (in place: the hot path allocates nothing)
    # ------------------------------------------------------------------
    def apply(self) -> None:
        """Zero the weight values outside the mask."""
        np.multiply(self.param.data, self._mask, out=self.param.data)

    def mask_gradient(self) -> None:
        """Zero the gradient outside the mask (keeps momentum clean)."""
        grad = self.param.grad
        if grad is not None:
            np.multiply(grad, self._mask, out=grad)


def _touched_rows_provider(target: SparseParam):
    """Active indices restricted to rows whose current gradient is non-zero.

    Embedding gradients are sparse by construction (``np.add.at`` scatter
    from :func:`repro.autograd.ops.getitem`): a batch touches only the
    rows its ids index.  Dense-Adam semantics would still decay the
    moments of every *active* coordinate — including rows the batch never
    saw — and then move their weights from stale momentum.  Restricting
    the bound index set to touched rows gives the lazy semantics of
    ``torch.optim.SparseAdam``: untouched rows receive neither moment
    decay nor weight updates.  The restriction is a pure function of the
    parameter's gradient at step time, so serial and worker-pool training
    (where gradients arrive pre-reduced from the pool) stay bitwise
    identical.
    """

    def provider() -> np.ndarray:
        idx = target.active_indices
        grad = target.param.grad
        if grad is None:
            return idx
        rows, cols = target.shape2d
        touched = np.any(grad.reshape(rows, cols) != 0.0, axis=1)
        if touched.all():
            return idx
        return idx[touched[idx // cols]]

    return provider


def _name_matches_component(name: str, spec: str) -> bool:
    """Whether ``spec`` matches ``name`` on module-path component boundaries.

    ``spec`` matches iff its dot-separated components appear as a contiguous
    run of ``name``'s components: ``"fc1"`` matches ``"fc1.weight"`` but not
    ``"fc10.weight"``; ``"features.0"`` matches ``"features.0.weight"`` but
    not ``"features.01.weight"``.
    """
    spec_parts = spec.split(".") if spec else []
    if not spec_parts:
        return False
    name_parts = name.split(".")
    span = len(spec_parts)
    return any(
        name_parts[start:start + span] == spec_parts
        for start in range(len(name_parts) - span + 1)
    )


def collect_sparsifiable(
    model: Module,
    include_modules: Sequence[Module] | None = None,
) -> list[tuple[str, Parameter]]:
    """Return ``(name, weight)`` pairs of sparsifiable parameters.

    By default: the ``weight`` of every :class:`~repro.nn.Linear`,
    :class:`~repro.nn.Conv2d`, and :class:`~repro.nn.Embedding` in the
    model (the LM workload sparsifies its embedding tables alongside the
    attention/MLP matmuls).  Pass ``include_modules`` to restrict to
    specific layers (e.g. the GNN experiments sparsify only the two
    predictor FC layers).
    """
    allowed = None if include_modules is None else {id(m) for m in include_modules}
    pairs: list[tuple[str, Parameter]] = []
    for name, module in model.named_modules():
        if not isinstance(module, (nn.Linear, nn.Conv2d, nn.Embedding)):
            continue
        if allowed is not None and id(module) not in allowed:
            continue
        pairs.append((f"{name}.weight" if name else "weight", module.weight))
    if not pairs:
        raise ValueError("no sparsifiable parameters found in model")
    return pairs


class MaskedModel:
    """A model plus per-layer masks at a global sparsity level.

    Parameters
    ----------
    model:
        The network to sparsify.
    sparsity:
        Global fraction of *zero* weights among sparsifiable parameters
        (e.g. 0.9 for the paper's 90% setting).
    distribution:
        ``"erk"`` (paper default), ``"er"``, or ``"uniform"``.
    rng:
        Generator for the random initial masks.
    include_modules:
        Optional restriction of which layers get sparsified.
    dense_layer_names:
        Names of layers to keep dense, e.g. the first conv — their mask is
        all-ones and they are excluded from the global budget.  Matching is
        on module-path component boundaries (``"fc1"`` matches
        ``"fc1.weight"``, never ``"fc10.weight"``).
    masks:
        Optional precomputed masks keyed by parameter name (static pruners
        compute them on the dense model *before* constructing this class).
        When given, the random initialization is skipped entirely.
    block_size:
        Mask granularity: masks are constrained to ``B×B`` tiles of each
        layer's 2-D weight view.  ``None`` reads ``REPRO_SPARSE_BLOCK_SIZE``
        (default 1 = unstructured).  Layers whose 2-D view is not divisible
        by the block size fall back to ``block_size=1`` individually (never
        silently mis-tiled); :attr:`block_fallbacks` lists them.
    block_underflow:
        What to do when a layer's requested density rounds to *zero* blocks
        (so the min-one-block floor would silently inflate it — see
        :func:`~repro.sparse.distribution.validate_block_quantization`).
        ``"error"`` (default) raises the validation ``ValueError``;
        ``"unstructured"`` keeps that layer at ``block_size=1`` so it trains
        at its true density, recorded in :attr:`block_fallbacks` like a
        non-tiling layer.
    """

    def __init__(
        self,
        model: Module,
        sparsity: float,
        distribution: str = "erk",
        rng: np.random.Generator | None = None,
        include_modules: Sequence[Module] | None = None,
        dense_layer_names: Iterable[str] = (),
        masks: dict[str, np.ndarray] | None = None,
        block_size: int | None = None,
        block_underflow: str = "error",
    ):
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        self.model = model
        self.sparsity = float(sparsity)
        self.distribution = distribution
        self.block_size = resolve_block_size(block_size)
        self.block_fallbacks: list[str] = []
        self._rng = resolve_rng(rng)
        self._bound_optimizer = None

        pairs = collect_sparsifiable(model, include_modules)
        dense_names = tuple(dense_layer_names)
        sparse_pairs = [
            (name, p) for name, p in pairs
            if not any(_name_matches_component(name, d) for d in dense_names)
        ]
        if block_underflow not in ("error", "unstructured"):
            raise ValueError(
                f"block_underflow must be 'error' or 'unstructured', got {block_underflow!r}"
            )
        density = 1.0 - self.sparsity
        # Per-layer granularity is resolved before the distribution so the
        # densities can be validated against block quantization (a density
        # that rounds to zero blocks on a tiny layer raises loudly instead
        # of being silently floored to one block).
        layer_blocks = [self._layer_block_size(name, p) for name, p in sparse_pairs]
        block_counts = [
            self._block_count(param, block) if block > 1 else None
            for (_, param), block in zip(sparse_pairs, layer_blocks)
        ]
        if block_underflow == "unstructured" and masks is None:
            raw = layer_densities([p.shape for _, p in sparse_pairs], density, distribution)
            for i, ((name, _), n_blocks) in enumerate(zip(sparse_pairs, block_counts)):
                if n_blocks and n_blocks > 1 and int(round(raw[i] * n_blocks)) == 0:
                    layer_blocks[i] = 1
                    block_counts[i] = None
                    self.block_fallbacks.append(name)
        densities = layer_densities(
            [p.shape for _, p in sparse_pairs],
            density,
            distribution,
            block_counts=block_counts if masks is None else None,
        )
        self.targets: list[SparseParam] = []
        for (name, param), layer_density, layer_block in zip(
            sparse_pairs, densities, layer_blocks
        ):
            if masks is not None:
                if name not in masks:
                    raise KeyError(f"precomputed masks missing layer {name!r}")
                mask = masks[name].astype(bool)
                if mask.shape != param.shape:
                    raise ValueError(
                        f"mask shape mismatch for {name!r}: {mask.shape} vs {param.shape}"
                    )
                layer_density = float(mask.mean())
            elif layer_block > 1:
                mask, layer_density = self._random_block_mask(
                    param.shape, layer_density, layer_block
                )
            else:
                mask = self._random_mask(param.shape, layer_density)
            self.targets.append(
                SparseParam(
                    name=name,
                    param=param,
                    mask=mask,
                    target_density=layer_density,
                    block_size=layer_block,
                )
            )
        # Integer source of truth for every density downstream: per-layer
        # allocations mirror the freshly built masks exactly.
        self.budget = DensityBudget.from_targets(self.targets)
        self.apply_masks()

    # ------------------------------------------------------------------
    @staticmethod
    def _block_count(param: Parameter, block_size: int) -> int:
        rows = int(param.shape[0])
        cols = int(param.size // rows)
        return (rows // block_size) * (cols // block_size)

    # ------------------------------------------------------------------
    def _layer_block_size(self, name: str, param: Parameter) -> int:
        """Per-layer granularity: the requested block size, or 1 when the
        2-D weight view does not tile (recorded in :attr:`block_fallbacks`)."""
        if self.block_size <= 1:
            return 1
        rows = int(param.shape[0])
        cols = int(param.size // rows)
        if rows % self.block_size or cols % self.block_size:
            self.block_fallbacks.append(name)
            return 1
        return self.block_size

    def _random_mask(self, shape: tuple[int, ...], density: float) -> np.ndarray:
        size = int(np.prod(shape))
        n_active = int(round(density * size))
        n_active = max(1, min(size, n_active)) if density > 0 else 0
        mask = np.zeros(size, dtype=bool)
        if n_active:
            idx = self._rng.choice(size, size=n_active, replace=False)
            mask[idx] = True
        return mask.reshape(shape)

    def _random_block_mask(
        self, shape: tuple[int, ...], density: float, block_size: int
    ) -> tuple[np.ndarray, float]:
        """Random whole-tile mask; returns it with the quantized density."""
        rows = int(shape[0])
        cols = int(np.prod(shape)) // rows
        indexer = MatrixBlockIndexer(rows, cols, block_size)
        n_active, exact_density = block_budget(density, indexer.n_blocks)
        blocks = (
            self._rng.choice(indexer.n_blocks, size=n_active, replace=False)
            if n_active
            else np.empty(0, dtype=np.int64)
        )
        mask = BlockMask(indexer, blocks).to_dense().reshape(shape)
        return mask, exact_density

    # ------------------------------------------------------------------
    # invariant enforcement
    # ------------------------------------------------------------------
    def apply_masks(self) -> None:
        """Zero every weight outside its mask."""
        for target in self.targets:
            target.apply()

    def mask_gradients(self) -> None:
        """Zero gradients outside the masks (call after ``backward``)."""
        for target in self.targets:
            target.mask_gradient()

    # ------------------------------------------------------------------
    # sparse-aware optimizer coupling
    # ------------------------------------------------------------------
    def bind_optimizer(self, optimizer) -> None:
        """Restrict ``optimizer`` updates of masked weights to active coordinates.

        After binding, the optimizer's step touches only ``active_indices``
        of each masked weight, so inactive weights stay exactly zero between
        mask updates and the per-step ``apply_masks`` pass becomes
        unnecessary (controllers consult :attr:`per_step_apply_needed`).
        The semantics are unchanged: gradients at inactive coordinates are
        zero (masked) and the engine resets optimizer state at regrown
        coordinates, so skipped inactive-state decay is never observable.

        :class:`~repro.nn.Embedding` weights additionally restrict the
        index set to *touched* rows (see :func:`_touched_rows_provider`),
        so only rows the batch indexed receive Adam moment updates —
        lazy ``SparseAdam`` semantics rather than whole-table decay.
        """
        embedding_params = {
            id(module.weight)
            for _, module in self.model.named_modules()
            if isinstance(module, nn.Embedding)
        }
        providers = {}
        for t in self.targets:
            if id(t.param) in embedding_params:
                providers[id(t.param)] = _touched_rows_provider(t)
            else:
                providers[id(t.param)] = lambda t=t: t.active_indices
        optimizer.bind_sparse_indices(providers)
        self._bound_optimizer = optimizer

    @property
    def per_step_apply_needed(self) -> bool:
        """Whether controllers must re-apply masks after every optimizer step."""
        return self._bound_optimizer is None

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def global_budget(self) -> int:
        """Total *allocated* non-zero elements (the budget's side of truth).

        Equals :attr:`total_active` except transiently, when a controller
        has mutated :attr:`budget` and the engine has not yet realized the
        change at its next mask update.
        """
        return self.budget.total

    def layer_allocations(self) -> dict[str, int]:
        """Per-layer element allocations (block-quantized where structured)."""
        return self.budget.allocations()

    @property
    def total_size(self) -> int:
        return sum(t.size for t in self.targets)

    @property
    def total_active(self) -> int:
        return sum(t.active_count for t in self.targets)

    def global_density(self) -> float:
        """Fraction of sparsifiable weights currently active."""
        return self.total_active / self.total_size

    def global_sparsity(self) -> float:
        """Fraction of sparsifiable weights currently zeroed."""
        return 1.0 - self.global_density()

    def layer_summary(self) -> list[dict]:
        """Per-layer stats: name, shape, density, active count."""
        return [
            {
                "name": t.name,
                "shape": t.param.shape,
                "density": t.density,
                "active": t.active_count,
                "size": t.size,
            }
            for t in self.targets
        ]

    def masks_snapshot(self) -> dict[str, np.ndarray]:
        """Copy of all masks keyed by parameter name."""
        return {t.name: t.mask.copy() for t in self.targets}

    def set_masks(
        self,
        masks: dict[str, np.ndarray],
        *,
        sync_budget: bool,
    ) -> None:
        """Replace masks (e.g. from a static pruner) and re-apply them.

        ``sync_budget`` controls whether the budget (and with it each
        layer's ``target_density``) is refreshed from the new masks:

        * ``True`` — refresh through :meth:`DensityBudget.refresh_from_masks`;
        * ``False`` — masks are replaced, the budget is left untouched (the
          engine will treat the difference as a rebalancing delta).
        """
        by_name = {t.name: t for t in self.targets}
        for name, mask in masks.items():
            if name not in by_name:
                raise KeyError(f"unknown masked parameter {name!r}")
            target = by_name[name]
            if mask.shape != target.mask.shape:
                raise ValueError(
                    f"mask shape mismatch for {name!r}: {mask.shape} vs {target.mask.shape}"
                )
            target.mask = mask.astype(bool)
        if sync_budget:
            self.budget.refresh_from_masks(self, names=list(masks))
        self.apply_masks()
