"""Mini-batch loader with optional shuffling."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor
from repro.data.dataset import ArrayDataset
from repro.rng import resolve_rng

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate a dataset in mini-batches of ``(Tensor inputs, ndarray targets)``.

    Parameters
    ----------
    dataset:
        The :class:`~repro.data.dataset.ArrayDataset` to iterate.
    batch_size:
        Examples per batch; the final short batch is kept.
    shuffle:
        Reshuffle example order at the start of every epoch.
    rng:
        Generator driving shuffling; pass one for reproducible epochs.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 128,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.rng = resolve_rng(rng)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[Tensor, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            batch_x = self.dataset.inputs[idx]
            batch_y = self.dataset.targets[idx]
            yield Tensor(np.ascontiguousarray(batch_x)), batch_y
