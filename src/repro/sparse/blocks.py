"""Block-structured masks: tile indexing and active-tile sets.

Unstructured CSR is BLAS-hostile at the paper's conv shapes (the committed
BENCH_engine.json shows the csr backend *losing* to dense on vgg_small at
every sparsity), so the block path constrains masks to ``B×B`` tiles of the
2-D weight view — the idiom of Graphcore's dynamic-sparsity stack.  Every
sparse layer has a block size; ``B = 1`` is the smallest tile, i.e. an
unstructured mask.  Two pieces live here:

* :class:`MatrixBlockIndexer` — the tiling geometry of one 2-D weight view:
  tile↔flat mappings and vectorized score pooling, so every drop and
  growth rule works unchanged at any block size.  Shapes that are not
  divisible by the block size are rejected loudly (callers that want a
  fallback catch this and use ``block_size=1``, i.e. unstructured).
* :class:`BlockMask` — a mask as a sorted set of active block ids, with
  the conversions to and from the dense boolean mask.

The kernels need no block-specific structure: a tiled mask's CSR is the
element CSR of its active set (:class:`repro.sparse.kernels.CsrMatmul`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MatrixBlockIndexer", "BlockMask"]


class MatrixBlockIndexer:
    """Tiling geometry of an ``(rows, cols)`` matrix in ``B×B`` blocks.

    Flat block ids enumerate tiles row-major: block ``b`` covers element
    rows ``[B*(b // block_cols), ...)`` and columns ``[B*(b % block_cols),
    ...)``.
    """

    def __init__(self, rows: int, cols: int, block_size: int):
        rows, cols, block_size = int(rows), int(cols), int(block_size)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if rows % block_size or cols % block_size:
            raise ValueError(
                f"matrix shape ({rows}, {cols}) is not divisible by "
                f"block_size {block_size}; choose a divisor of both "
                f"dimensions or fall back to block_size=1 (unstructured)"
            )
        self.rows = rows
        self.cols = cols
        self.block_size = block_size
        self.block_rows = rows // block_size
        self.block_cols = cols // block_size
        self.n_blocks = self.block_rows * self.block_cols

    def __repr__(self) -> str:
        return (
            f"MatrixBlockIndexer(rows={self.rows}, cols={self.cols}, "
            f"block_size={self.block_size})"
        )

    # ------------------------------------------------------------------
    # mappings
    # ------------------------------------------------------------------
    def block_view(self, mat2d: np.ndarray) -> np.ndarray:
        """``(block_rows, block_cols, B, B)`` view-like tiling of ``mat2d``."""
        b = self.block_size
        return mat2d.reshape(self.block_rows, b, self.block_cols, b).transpose(0, 2, 1, 3)

    def pool(self, values2d: np.ndarray) -> np.ndarray:
        """Mean of ``values2d`` over each tile, flat ``(n_blocks,)``.

        Mean (not sum) pooling keeps block scores on the same scale as
        element scores, so global (cross-layer) rankings that mix block
        and unstructured layers stay comparable.
        """
        b = self.block_size
        values2d = np.asarray(values2d)
        if b == 1:
            return values2d.reshape(-1)
        # Two contiguous reductions instead of a mean over the strided 4-d
        # block view: same result, ~2x less memory-traffic time per round.
        row_sum = values2d.reshape(self.block_rows, b, self.cols).sum(axis=1)
        pooled = row_sum.reshape(self.block_rows, self.block_cols, b).sum(axis=2)
        return pooled.reshape(-1) / (b * b)

    def blocks_of_flat(self, flat_idx: np.ndarray) -> np.ndarray:
        """Flat block id of each flat *element* index."""
        b = self.block_size
        rows, cols = np.divmod(np.asarray(flat_idx), self.cols)
        return (rows // b) * self.block_cols + (cols // b)

    def expand_blocks(self, block_idx: np.ndarray) -> np.ndarray:
        """Flat element indices covered by ``block_idx``, shape ``(k, B*B)``.

        Within each block the elements come out row-major, so
        ``result.reshape(k, B, B)`` is the tile in its natural layout.
        """
        b = self.block_size
        block_idx = np.asarray(block_idx, dtype=np.int64).reshape(-1)
        brow, bcol = np.divmod(block_idx, self.block_cols)
        top_left = brow * b * self.cols + bcol * b
        offsets = (np.arange(b)[:, None] * self.cols + np.arange(b)[None, :]).reshape(-1)
        return top_left[:, None] + offsets[None, :]


class BlockMask:
    """A block mask as a sorted, duplicate-free array of active flat block ids.

    The conversion point between a layer's dense boolean mask and its
    active tiles: :meth:`from_dense` pools (and validates) a mask into
    block ids, :meth:`to_dense` expands them back.  Drop-and-grow itself
    edits ``SparseParam`` index sets, not this class.
    """

    def __init__(self, indexer: MatrixBlockIndexer, active_blocks: np.ndarray):
        self.indexer = indexer
        # Sort + adjacent-compare dedup instead of np.unique: the hash-based
        # unique kernel is the top cost in mask-update profiles, and inputs
        # here are typically already sorted (sort of sorted data is cheap).
        active = np.sort(np.asarray(active_blocks, dtype=np.int64).reshape(-1))
        if active.size > 1:
            distinct = np.empty(active.size, dtype=bool)
            distinct[0] = True
            np.not_equal(active[1:], active[:-1], out=distinct[1:])
            if not distinct.all():
                active = active[distinct]
        if active.size and (active[0] < 0 or active[-1] >= indexer.n_blocks):
            raise ValueError(
                f"block ids must be in [0, {indexer.n_blocks}), "
                f"got range [{active[0]}, {active[-1]}]"
            )
        self.active_blocks = active

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, indexer: MatrixBlockIndexer, mask2d: np.ndarray, validate: bool = True
    ) -> "BlockMask":
        """Pool a dense boolean mask into block form.

        With ``validate=True`` a tile that is neither fully active nor
        fully inactive raises — a half-filled tile means the caller mixed
        element-granular edits into a block-structured mask.
        """
        tiles = indexer.block_view(np.asarray(mask2d, dtype=bool))
        any_on = tiles.any(axis=(2, 3)).reshape(-1)
        if validate:
            all_on = tiles.all(axis=(2, 3)).reshape(-1)
            if not np.array_equal(any_on, all_on):
                broken = int(np.count_nonzero(any_on & ~all_on))
                raise ValueError(
                    f"mask is not block-structured: {broken} tile(s) of size "
                    f"{indexer.block_size} are partially active"
                )
        return cls(indexer, np.flatnonzero(any_on))

    def to_dense(self) -> np.ndarray:
        """Dense boolean ``(rows, cols)`` mask with every active tile set."""
        idx = self.indexer
        flat = np.zeros(idx.rows * idx.cols, dtype=bool)
        if self.active_blocks.size:
            flat[idx.expand_blocks(self.active_blocks).reshape(-1)] = True
        return flat.reshape(idx.rows, idx.cols)

    def __repr__(self) -> str:
        return (
            f"BlockMask(blocks={self.active_blocks.size}/{self.indexer.n_blocks}, "
            f"block_size={self.indexer.block_size})"
        )
