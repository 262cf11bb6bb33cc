"""Experiment configuration scales and settings."""


import pytest

from repro.experiments import configs
from repro.experiments.configs import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    fig3_settings,
    get_scale,
    gnn_settings,
    table1_settings,
    table2_settings,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)


class TestScale:
    def test_default_is_small(self):
        assert get_scale().name == "small"

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale().name == "medium"
        monkeypatch.setenv("REPRO_SCALE", "FULL")
        assert get_scale().name == "full"

    def test_unknown_scale_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            get_scale()

    def test_scales_are_ordered(self):
        small = configs._SCALES["small"]
        medium = configs._SCALES["medium"]
        full = configs._SCALES["full"]
        assert small.n_train <= medium.n_train <= full.n_train
        assert small.epochs <= medium.epochs <= full.epochs
        assert len(small.seeds) <= len(medium.seeds) <= len(full.seeds)

    def test_extended_epochs_exceed_standard(self):
        for scale in configs._SCALES.values():
            assert scale.extended_epochs > scale.epochs


class TestTableSettings:
    def test_table1_structure(self):
        settings = table1_settings()
        assert set(settings.datasets) == {"cifar10", "cifar100"}
        assert set(settings.model_factories) == {"vgg19", "resnet50"}
        assert settings.sparsities == (0.9, 0.95, 0.98)
        assert settings.methods == TABLE1_METHODS
        assert "dst_ee" in settings.methods
        assert settings.methods[0] == "dense"

    def test_table1_factories_produce_models(self):
        settings = table1_settings()
        data = settings.datasets["cifar10"]
        model = settings.model_factories["vgg19"](data.num_classes)(seed=0)
        assert model.num_classes == data.num_classes

    def test_table1_run_kwargs_complete(self):
        kwargs = table1_settings().run_kwargs()
        assert {"epochs", "batch_size", "lr", "delta_t", "drop_fraction"} <= set(kwargs)

    def test_table2_structure(self):
        settings = table2_settings()
        assert set(settings.datasets) == {"imagenet"}
        assert settings.sparsities == (0.8, 0.9)
        assert settings.methods == TABLE2_METHODS
        assert "rigl_itop" in settings.methods
        assert "mest" in settings.methods

    def test_gnn_settings_scaled(self):
        settings = gnn_settings()
        assert settings.sparsities == (0.8, 0.9, 0.98)
        assert settings.admm_epochs % 3 == 0  # three equal phases
        # The paper's protocol: DST-EE uses fewer epochs than the ADMM total.
        assert settings.dst_ee_epochs < settings.admm_epochs

    def test_fig3_settings(self):
        settings = fig3_settings()
        assert settings.sparsity == pytest.approx(0.95)
        assert len(settings.cifar100_coefficients) == 3
