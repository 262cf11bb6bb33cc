"""Shared-memory array helpers for the data-parallel gradient workers.

Thin wrappers around :mod:`multiprocessing.shared_memory` that keep the
block handle and the numpy view together, so the owning process can unlink
the segment exactly once and forked children can keep using the inherited
mapping without reattaching by name.
"""

from __future__ import annotations

import numpy as np
from multiprocessing import shared_memory

__all__ = ["SharedArray", "ParamLayout"]


class SharedArray:
    """A numpy array backed by a ``SharedMemory`` block.

    Created (and eventually unlinked) by the parent; forked workers inherit
    the mapping, so reads/writes on ``.array`` are visible across the
    process tree with no copies.
    """

    def __init__(self, shape: tuple[int, ...], dtype=np.float32):
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)

    def close(self, unlink: bool = True) -> None:
        """Release the mapping (and the segment, when ``unlink``)."""
        # Drop the numpy view first: SharedMemory.close() refuses to unmap
        # while exported buffers are alive.
        self.array = None
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked by the owner
                pass


class ParamLayout:
    """Flat offsets of a parameter list inside one contiguous float32 block."""

    def __init__(self, params):
        self.params = list(params)
        self.offsets: list[int] = []
        total = 0
        for param in self.params:
            self.offsets.append(total)
            total += int(param.size)
        self.total = total

    def view(self, flat: np.ndarray, index: int) -> np.ndarray:
        """Parameter-shaped view of entry ``index`` inside ``flat``."""
        param = self.params[index]
        offset = self.offsets[index]
        return flat[offset : offset + param.size].reshape(param.shape)
