"""DataLoader: batching and shuffling."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import ArrayDataset, DataLoader


def make_dataset(n=20):
    return ArrayDataset(
        np.arange(n, dtype=np.float32).reshape(n, 1),
        np.arange(n, dtype=np.int64),
    )


class TestBatching:
    def test_batch_sizes(self):
        loader = DataLoader(make_dataset(10), batch_size=4)
        sizes = [len(y) for _, y in loader]
        assert sizes == [4, 4, 2]

    def test_len(self):
        assert len(DataLoader(make_dataset(10), batch_size=4)) == 3
        assert len(DataLoader(make_dataset(8), batch_size=4)) == 2

    def test_yields_tensors_and_arrays(self):
        x, y = next(iter(DataLoader(make_dataset(6), batch_size=3)))
        assert isinstance(x, Tensor)
        assert isinstance(y, np.ndarray)

    def test_without_shuffle_preserves_order(self):
        loader = DataLoader(make_dataset(6), batch_size=6)
        _, y = next(iter(loader))
        assert np.array_equal(y, np.arange(6))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(4), batch_size=0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1)), np.zeros(4))


class TestShuffle:
    def test_shuffle_changes_order(self):
        loader = DataLoader(
            make_dataset(50), batch_size=50, shuffle=True,
            rng=np.random.default_rng(0),
        )
        _, y = next(iter(loader))
        assert not np.array_equal(y, np.arange(50))
        assert set(y.tolist()) == set(range(50))

    def test_reproducible_with_seed(self):
        def first_epoch(seed):
            loader = DataLoader(
                make_dataset(30), batch_size=30, shuffle=True,
                rng=np.random.default_rng(seed),
            )
            return next(iter(loader))[1]

        assert np.array_equal(first_epoch(5), first_epoch(5))
        assert not np.array_equal(first_epoch(5), first_epoch(6))

    def test_epochs_differ(self):
        loader = DataLoader(
            make_dataset(30), batch_size=30, shuffle=True,
            rng=np.random.default_rng(0),
        )
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)
