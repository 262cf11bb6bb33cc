"""Method registry: every paper method is constructible and well-typed."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, make_image_classification
from repro.experiments import (
    ALL_METHODS,
    DENSE_TO_SPARSE_METHODS,
    DYNAMIC_METHODS,
    STATIC_METHODS,
    build_method,
    method_family,
)
from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    FixedMaskController,
    GMPController,
    STRController,
)


@pytest.fixture
def context():
    data = make_image_classification(3, 64, 32, image_size=8, noise=0.6, seed=0)
    model = MLP(in_features=3 * 8 * 8, hidden=(24,), num_classes=3, seed=0)
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loader = DataLoader(data.train, batch_size=32, rng=np.random.default_rng(0))
    batches = [next(iter(loader))]
    return model, optimizer, batches, data.input_shape


class TestFamilies:
    def test_all_methods_have_families(self):
        for name in ALL_METHODS:
            assert method_family(name) in ("dense", "static", "dense_to_sparse", "dynamic")

    def test_family_partitions(self):
        assert method_family("dense") == "dense"
        for name in STATIC_METHODS:
            assert method_family(name) == "static"
        for name in DENSE_TO_SPARSE_METHODS:
            assert method_family(name) == "dense_to_sparse"
        for name in DYNAMIC_METHODS:
            assert method_family(name) == "dynamic"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            method_family("lottery_ticket")

    def test_admm_is_prune_from_dense_and_built_by_run_gnn_only(self, context):
        assert method_family("admm") == "prune_from_dense"
        model, optimizer, _, _ = context
        with pytest.raises(ValueError, match="only run_gnn"):
            build_method("admm", model, optimizer, 0.9, 100)


class TestBuild:
    def test_dense_has_no_controller(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("dense", model, optimizer, 0.9, 100)
        assert setup.controller is None
        assert setup.masked is None

    @pytest.mark.parametrize("name", DYNAMIC_METHODS)
    def test_dynamic_methods_build_engines(self, context, name):
        model, optimizer, batches, input_shape = context
        setup = build_method(
            name, model, optimizer, 0.8, 100,
            loss_fn=nn.cross_entropy, saliency_batches=batches,
            input_shape=input_shape, rng=np.random.default_rng(0),
        )
        assert isinstance(setup.controller, DynamicSparseEngine)
        assert setup.masked is not None
        assert setup.masked.global_sparsity() == pytest.approx(0.8, abs=0.03)

    def test_dst_ee_uses_configured_c(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method(
            "dst_ee", model, optimizer, 0.8, 100, c=7e-3, epsilon=0.5,
            rng=np.random.default_rng(0),
        )
        assert isinstance(setup.controller.growth_rule, DSTEEGrowth)
        assert setup.controller.growth_rule.c == pytest.approx(7e-3)
        assert setup.controller.growth_rule.epsilon == pytest.approx(0.5)

    def test_rigl_itop_never_stops_updating(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("rigl_itop", model, optimizer, 0.8, 100,
                             rng=np.random.default_rng(0))
        assert setup.controller.update_schedule.stop_step == 100

    def test_dsr_uses_global_drop(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("dsr", model, optimizer, 0.8, 100,
                             rng=np.random.default_rng(0))
        assert setup.controller.global_drop
        assert setup.controller.grow_allocation == "proportional"

    @pytest.mark.parametrize("name", ["snip", "grasp"])
    def test_saliency_methods_build_fixed_masks(self, context, name):
        model, optimizer, batches, input_shape = context
        setup = build_method(
            name, model, optimizer, 0.8, 100,
            loss_fn=nn.cross_entropy, saliency_batches=batches,
            rng=np.random.default_rng(0),
        )
        assert isinstance(setup.controller, FixedMaskController)
        assert setup.masked.global_sparsity() == pytest.approx(0.8, abs=0.03)

    def test_synflow_builds(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method(
            "synflow", model, optimizer, 0.8, 100, input_shape=input_shape,
            rng=np.random.default_rng(0),
        )
        assert isinstance(setup.controller, FixedMaskController)

    def test_synflow_requires_input_shape(self, context):
        model, optimizer, batches, input_shape = context
        with pytest.raises(ValueError, match="input_shape"):
            build_method("synflow", model, optimizer, 0.8, 100)

    def test_snip_requires_batches(self, context):
        model, optimizer, batches, input_shape = context
        with pytest.raises(ValueError, match="saliency_batches"):
            build_method("snip", model, optimizer, 0.8, 100, loss_fn=nn.cross_entropy)

    def test_str_builds_with_finalize(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("str", model, optimizer, 0.8, 100,
                             rng=np.random.default_rng(0))
        assert isinstance(setup.controller, STRController)
        assert setup.finalize is not None
        assert setup.masked.global_sparsity() == pytest.approx(0.0, abs=1e-6)

    def test_gmp_starts_dense(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("gmp", model, optimizer, 0.9, 100,
                             rng=np.random.default_rng(0))
        assert isinstance(setup.controller, GMPController)
        assert setup.masked.global_density() == pytest.approx(1.0)

    def test_granet_has_regrow(self, context):
        model, optimizer, batches, input_shape = context
        setup = build_method("granet", model, optimizer, 0.9, 100,
                             rng=np.random.default_rng(0))
        assert setup.controller.regrow_fraction == pytest.approx(0.5)

    def test_gap_builds_at_target_sparsity(self, context):
        from repro.sparse.gap import GaPController

        model, optimizer, batches, input_shape = context
        setup = build_method("gap", model, optimizer, 0.8, 100,
                             rng=np.random.default_rng(0))
        assert isinstance(setup.controller, GaPController)
        # One partition is dense, so current sparsity is below the target.
        assert setup.masked.global_sparsity() < 0.8
        assert setup.controller.dense_fraction() > 0.0
