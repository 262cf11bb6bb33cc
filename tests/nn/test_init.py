"""Weight initialization: fans, scales, reproducibility."""

import math

import numpy as np
import pytest

from repro.nn import init
from repro.nn.module import Parameter


class TestFans:
    def test_linear_fans(self):
        assert init.compute_fans((10, 20)) == (20, 10)

    def test_conv_fans_include_kernel(self):
        # (out=8, in=4, kh=3, kw=3): fan_in = 4*9, fan_out = 8*9
        assert init.compute_fans((8, 4, 3, 3)) == (36, 72)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            init.compute_fans((5,))


class TestDistributions:
    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        p = Parameter(np.empty((64, 64), dtype=np.float32))
        init.kaiming_uniform_(p, rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 64)
        assert np.abs(p.data).max() <= bound + 1e-6

    def test_reproducible_with_same_seed(self):
        p1 = Parameter(np.empty((10, 10), dtype=np.float32))
        p2 = Parameter(np.empty((10, 10), dtype=np.float32))
        init.kaiming_uniform_(p1, np.random.default_rng(7))
        init.kaiming_uniform_(p2, np.random.default_rng(7))
        assert np.array_equal(p1.data, p2.data)

    def test_gain_values(self):
        rng = np.random.default_rng(0)
        p = Parameter(np.empty((512, 512), dtype=np.float32))
        init.kaiming_uniform_(p, rng, nonlinearity="linear")
        assert p.data.std() == pytest.approx(math.sqrt(1.0 / 512), rel=0.05)

    def test_unknown_nonlinearity_raises(self):
        p = Parameter(np.empty((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="unknown nonlinearity"):
            init.kaiming_uniform_(p, np.random.default_rng(0), nonlinearity="swish")

    def test_dtype_preserved(self):
        p = Parameter(np.empty((4, 4), dtype=np.float32))
        init.kaiming_uniform_(p, np.random.default_rng(0))
        assert p.data.dtype == np.float32
