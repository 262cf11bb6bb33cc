"""Per-layer mask density table."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import MaskedModel
from repro.sparse.analysis import layer_density_table


class TestDensityTable:
    def test_rows_and_total(self):
        model = MLP(in_features=10, hidden=(14,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        rows = layer_density_table(masked)
        assert rows[-1]["layer"] == "TOTAL"
        assert rows[-1]["density"] == pytest.approx(0.2, abs=0.02)
        assert len(rows) == len(masked.targets) + 1
        assert sum(r["nnz"] for r in rows[:-1]) == rows[-1]["nnz"]
