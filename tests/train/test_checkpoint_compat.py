"""Checkpoints in the weight-shaped state layout resume bitwise.

Coverage counters are kept per ``B×B`` tile and optimizer moments per
active weight, but checkpoint files keep weight-sized arrays: save expands
that state and load reads it back.  The archives under ``data/`` were
written by git 403a682, whose counters and moments were weight-shaped in
memory too: ``_build(name)`` below, trained with a checkpoint after every
step, with the step-3 file kept.  Step 3 is the first mask update, so the
files hold moments at just-dropped weights as well as at grown ones.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import make_image_classification
from repro.experiments.registry import build_method
from repro.models import MLP
from repro.nn.losses import cross_entropy
from repro.optim import SGD, Adam
from repro.train import Trainer, load_training_checkpoint

DATA = pathlib.Path(__file__).parent / "data"
EPOCHS = 4
RESUME_STEP = 3


def _build(name: str):
    data = make_image_classification(
        n_classes=4, n_train=64, n_test=32, image_size=4, noise=0.6, seed=11
    )
    model = MLP(in_features=48, hidden=(16,), num_classes=4, seed=0)
    if name == "sgd":
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4, nesterov=True)
    else:
        optimizer = Adam(model.parameters(), lr=1e-2)
    loader = DataLoader(data.train, batch_size=16, shuffle=True, rng=np.random.default_rng(1))
    setup = build_method(
        "dst_ee", model, optimizer, 0.75, EPOCHS * len(loader),
        delta_t=RESUME_STEP, rng=np.random.default_rng(0), block_size=2,
    )
    trainer = Trainer(
        model, optimizer, cross_entropy, loader, DataLoader(data.test, batch_size=32),
        controller=setup.controller, sparse_backend="csr",
    )
    return trainer, setup


@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_weight_shaped_checkpoint_resumes_bitwise(name):
    reference, ref_setup = _build(name)
    reference.fit(EPOCHS)
    resumed, res_setup = _build(name)
    resumed.load_state_dict(load_training_checkpoint(DATA / f"dense_state_{name}.npz"))
    assert resumed.global_step == RESUME_STEP
    resumed.fit(EPOCHS)

    for series in ("train_loss", "test_accuracy", "learning_rate", "exploration_rate"):
        assert resumed.history.series(series) == reference.history.series(series)
    for p_ref, p_res in zip(reference.model.parameters(), resumed.model.parameters()):
        np.testing.assert_array_equal(p_ref.data, p_res.data)
    for t_ref, t_res in zip(ref_setup.masked.targets, res_setup.masked.targets):
        np.testing.assert_array_equal(t_ref.mask, t_res.mask)
    ref_state = reference.state_dict()
    res_state = resumed.state_dict()
    for part in ("optimizer", "controller"):
        _assert_trees_equal(ref_state[part], res_state[part])


def test_counters_varying_inside_a_tile_are_rejected():
    trainer, setup = _build("sgd")
    state = load_training_checkpoint(DATA / "dense_state_sgd.npz")
    target = setup.masked.targets[0]
    counters = state["controller"]["coverage"]["counters"][target.name]
    counters.reshape(-1)[1] += 1.0  # same 2x2 tile as element 0
    with pytest.raises(ValueError, match="tile"):
        trainer.load_state_dict(state)


def _assert_trees_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a.keys() - {"duration_ms"}:  # wall clock
            _assert_trees_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_trees_equal(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b
