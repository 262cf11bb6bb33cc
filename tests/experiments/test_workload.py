"""One way to configure a workload: every removed form fails loudly.

Entrypoints take plain keywords, and sparsity controllers take their
timing only from a :class:`~repro.sparse.TrainingSchedule`.  The config
object, the renamed RL/GAN kwargs and the pre-budget controller forms are
gone; passing any of them must raise ``TypeError`` rather than be
silently ignored or reinterpreted.
"""

import numpy as np
import pytest

from repro.experiments import run_image_classification, run_lm, run_rl
from repro.experiments.gan import run_gan
from repro.models import MLP
from repro.sparse import (
    DynamicSparseEngine,
    GaPController,
    GMPController,
    GradientGrowth,
    MaskedModel,
    STRController,
)

TINY_LM = dict(
    n_chars=2048,
    block_len=16,
    n_layer=1,
    n_head=2,
    n_embd=16,
    epochs=1,
    batch_size=16,
)


def masked(sparsity=0.5):
    model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=0)
    return MaskedModel(model, sparsity, rng=np.random.default_rng(0))


REMOVED_FORMS = {
    "run_image_classification(config=)": lambda: run_image_classification(
        "dense", None, None, config=object()
    ),
    "run_lm(config=)": lambda: run_lm("dense", config=object()),
    "run_rl(config=)": lambda: run_rl("dense", config=object()),
    "run_gan(config=)": lambda: run_gan("dense", config=object()),
    "run_rl(ee_epsilon=)": lambda: run_rl("dst_ee", ee_epsilon=0.9),
    "run_gan(ee_epsilon=)": lambda: run_gan("dst_ee", ee_epsilon=0.9),
    "run_rl(checkpoint_every_episodes=)": lambda: run_rl(
        "dense", checkpoint_every_episodes=1
    ),
    "GMPController(final_sparsity float)": lambda: GMPController(
        masked(0.0), 0.9, total_steps=100
    ),
    "STRController(final_sparsity float)": lambda: STRController(
        masked(0.0), 0.9, total_steps=100
    ),
    "GaPController(total_steps int)": lambda: GaPController(masked(), total_steps=100),
    "DynamicSparseEngine(total_steps=)": lambda: DynamicSparseEngine(
        masked(), GradientGrowth(), total_steps=100, delta_t=10
    ),
    "MaskedModel.set_masks(no sync_budget)": lambda: masked().set_masks({}),
}


@pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
def test_removed_form_raises_type_error(form):
    with pytest.raises(TypeError):
        REMOVED_FORMS[form]()


class TestEntrypointIntegration:
    def test_missing_method_is_loud(self):
        with pytest.raises((TypeError, ValueError)):
            run_lm(**TINY_LM)
