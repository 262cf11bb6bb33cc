"""Cross-method behavioural contracts exercised through real training.

Every sparsification method family has a signature cost/behaviour profile
that the paper's tables rely on; these tests pin them down at test scale.
"""

import numpy as np
import pytest

from repro.data import make_image_classification
from repro.experiments import run_image_classification
from repro.models import MLP


@pytest.fixture(scope="module")
def data():
    return make_image_classification(
        n_classes=4, n_train=192, n_test=96, image_size=8, noise=0.7, seed=41,
        name="behave",
    )


def factory(seed):
    return MLP(in_features=3 * 8 * 8, hidden=(48,), num_classes=4, seed=seed)


KWARGS = dict(epochs=3, batch_size=32, lr=0.08, delta_t=3)


class TestCostProfiles:
    def test_dynamic_methods_train_sparse(self, data):
        for method in ("set", "rigl", "dst_ee"):
            result = run_image_classification(
                method, factory, data, sparsity=0.9, **KWARGS
            )
            assert result.training_flops_multiplier < 0.45, method

    def test_dense_to_sparse_methods_train_denser(self, data):
        sparse_cost = run_image_classification(
            "rigl", factory, data, sparsity=0.9, **KWARGS
        ).training_flops_multiplier
        for method in ("gmp", "str", "gap"):
            result = run_image_classification(
                method, factory, data, sparsity=0.9, **KWARGS
            )
            assert result.training_flops_multiplier > sparse_cost, method

    def test_gap_ends_sparse_despite_dense_phases(self, data):
        result = run_image_classification(
            "gap", factory, data, sparsity=0.9, **KWARGS
        )
        assert result.actual_sparsity == pytest.approx(0.9, abs=0.03)

    def test_static_methods_constant_cost(self, data):
        result = run_image_classification(
            "synflow", factory, data, sparsity=0.9, **KWARGS
        )
        assert result.training_flops_multiplier == pytest.approx(
            result.inference_flops_multiplier, abs=1e-6
        )


class TestTopologyBehaviour:
    def test_dynamic_masks_move_static_masks_do_not(self, data):
        def mask_jaccard(a, b):
            return (a & b).sum() / (a | b).sum()

        moving = run_image_classification(
            "rigl", factory, data, sparsity=0.9, seed=5, **KWARGS
        )
        frozen = run_image_classification(
            "static_random", factory, data, sparsity=0.9, seed=5, **KWARGS
        )
        # Re-derive the initial masks for the same seed.
        from repro.sparse import MaskedModel

        initial = MaskedModel(
            factory(5), 0.9, rng=np.random.default_rng(5)
        ).masks_snapshot()
        moving_sim = np.mean([
            mask_jaccard(initial[name], moving.masks[name]) for name in initial
        ])
        frozen_sim = np.mean([
            mask_jaccard(initial[name], frozen.masks[name]) for name in initial
        ])
        assert frozen_sim == pytest.approx(1.0)
        assert moving_sim < 1.0

    def test_itop_setting_covers_more_than_rigl(self, data):
        rigl = run_image_classification(
            "rigl", factory, data, sparsity=0.9, seed=3, **KWARGS
        )
        itop = run_image_classification(
            "rigl_itop", factory, data, sparsity=0.9, seed=3, **KWARGS
        )
        # ITOP keeps updating (no stop, constant fraction) ⇒ ≥ coverage.
        assert itop.exploration_rate >= rigl.exploration_rate - 1e-6

    def test_deepr_rewires_most(self, data):
        deepr = run_image_classification(
            "deepr", factory, data, sparsity=0.9, seed=3, **KWARGS
        )
        rigl = run_image_classification(
            "rigl", factory, data, sparsity=0.9, seed=3, **KWARGS
        )
        # Stochastic rewiring explores at least as much as greedy growth.
        assert deepr.exploration_rate >= rigl.exploration_rate - 0.02


class TestBudgetContracts:
    @pytest.mark.parametrize("method", ["snfs", "dsr", "mest", "granet"])
    def test_remaining_methods_hit_target(self, data, method):
        result = run_image_classification(
            method, factory, data, sparsity=0.85, **KWARGS
        )
        assert result.actual_sparsity == pytest.approx(0.85, abs=0.03)
        assert result.final_accuracy > 0.3  # trains at all (chance = 0.25)
