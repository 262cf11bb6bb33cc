"""Cell runner: one run returns a complete table row."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import make_image_classification
from repro.experiments import run_image_classification, run_multi_seed
from repro.models import MLP


@pytest.fixture(scope="module")
def data():
    return make_image_classification(
        n_classes=3, n_train=128, n_test=64, image_size=8, noise=0.6, seed=5,
        name="runner-test",
    )


def factory(seed):
    return MLP(in_features=3 * 8 * 8, hidden=(32,), num_classes=3, seed=seed)


KWARGS = dict(epochs=2, batch_size=32, lr=0.08, delta_t=2)


class TestRunResult:
    def test_dense_run_fields(self, data):
        result = run_image_classification("dense", factory, data, **KWARGS)
        assert result.method == "dense"
        assert result.dataset == "runner-test"
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.actual_sparsity is None
        assert result.inference_flops_multiplier == pytest.approx(1.0)
        assert result.training_flops_multiplier == pytest.approx(1.0)
        assert result.seconds > 0

    def test_dst_ee_run_fields(self, data):
        result = run_image_classification(
            "dst_ee", factory, data, sparsity=0.8, **KWARGS
        )
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.03)
        assert result.exploration_rate is not None
        assert result.exploration_rate >= 1.0 - 0.8 - 0.03
        assert 0.0 < result.inference_flops_multiplier < 1.0
        assert result.masks  # snapshot present

    def test_static_method_runs(self, data):
        result = run_image_classification("snip", factory, data, sparsity=0.8, **KWARGS)
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.03)
        assert result.exploration_rate is None

    def test_str_reaches_target(self, data):
        result = run_image_classification("str", factory, data, sparsity=0.8, **KWARGS)
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.1)
        # dense-to-sparse training costs more than the final sparse model
        assert result.training_flops_multiplier > result.inference_flops_multiplier

    def test_reproducible_given_seed(self, data):
        a = run_image_classification("rigl", factory, data, sparsity=0.8, seed=3, **KWARGS)
        b = run_image_classification("rigl", factory, data, sparsity=0.8, seed=3, **KWARGS)
        assert a.final_accuracy == pytest.approx(b.final_accuracy)

    def test_history_attached(self, data):
        result = run_image_classification("dense", factory, data, **KWARGS)
        assert len(result.history) == KWARGS["epochs"]


class TestMultiSeed:
    def test_mean_std_over_seeds(self, data):
        mean, std, results = run_multi_seed(
            run_image_classification, "set", factory, data, seeds=(0, 1), sparsity=0.8, **KWARGS
        )
        assert len(results) == 2
        scores = [r.final_accuracy for r in results]
        assert mean == pytest.approx(np.mean(scores))
        assert std == pytest.approx(np.std(scores))

    def test_missing_scores_are_skipped(self):
        # Any workload's run function works; a seed without a score (an RL
        # run that finished no episode) is left out of the mean/std.
        def run(label, *, seed):
            return SimpleNamespace(label=label, final_accuracy=None if seed == 0 else 150.0)

        mean, std, results = run_multi_seed(run, "cell", seeds=(0, 1), n_proc=1)
        assert (mean, std) == (150.0, 0.0)
        assert [r.label for r in results] == ["cell", "cell"]
        assert run_multi_seed(run, "cell", seeds=(0,), n_proc=1)[:2] == (None, None)
