"""Sparse-training state sized by the active set, not by the layer.

Coverage counters are kept per ``B×B`` tile and a bound optimizer keeps
momentum and moments as vectors over the active weights.  These tests pin
the footprint, the bitwise equality of the per-tile Eq. 1 path with the
element-wise one, and the optimizer semantics across a mask update.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.data.loader import DataLoader
from repro.data.synthetic import cifar100_like
from repro.experiments.registry import build_method
from repro.models import MLP, CharGPT, vgg19
from repro.nn.losses import cross_entropy, lm_cross_entropy
from repro.optim import SGD, Adam
from repro.sparse import DynamicSparseEngine, GradientGrowth, MaskedModel, TrainingSchedule
from repro.sparse.blocks import MatrixBlockIndexer
from repro.sparse.growers import DSTEEGrowth, LayerContext
from repro.sparse.masked import SparseParam
from repro.sparse.scoring import acquisition_score
from repro.train import Trainer


def _array_bytes(node) -> int:
    if isinstance(node, np.ndarray):
        return node.nbytes
    if isinstance(node, dict):
        return sum(_array_bytes(value) for value in node.values())
    if isinstance(node, (list, tuple)):
        return sum(_array_bytes(value) for value in node)
    return 0


class TestFootprint:
    def test_vgg19_b4_state_scales_with_units_and_nnz(self):
        data = cifar100_like(n_train=40, n_test=8, image_size=12, n_classes=20, seed=0)
        model = vgg19(num_classes=20, width_mult=0.25, input_size=12, seed=0)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        loader = DataLoader(data.train, batch_size=8, shuffle=True, rng=np.random.default_rng(1))
        setup = build_method(
            "dst_ee", model, optimizer, 0.98, 1000, delta_t=3,
            rng=np.random.default_rng(0), block_size=4,
        )
        trainer = Trainer(
            model, optimizer, cross_entropy, loader,
            controller=setup.controller, sparse_backend="bsr",
        )
        trainer.fit(1)  # 5 steps: 2 optimizer steps, a mask update, 2 more
        engine, masked = setup.controller, setup.masked
        assert len(engine.history) == 1
        assert trainer.global_step == 5

        tracker = {k: v for k, v in vars(engine.coverage).items() if k != "masked"}
        ids = {id(t.param) for t in masked.targets}
        held = _array_bytes(tracker)
        held += _array_bytes([optimizer.state.get(i, {}) for i in ids])
        held += _array_bytes([optimizer._layouts.get(i) for i in ids])
        units = sum(t.indexer.n_blocks for t in masked.targets)
        nnz = masked.total_active
        assert held <= 8 * (units + 2 * nnz)
        # Every masked weight was stepped after the update, so it holds momentum.
        assert all("momentum" in optimizer.state[i] for i in ids)


@st.composite
def _tiled_layer(draw):
    b = draw(st.sampled_from([1, 2, 4]))
    rows, cols = b * draw(st.integers(1, 5)), b * draw(st.integers(1, 5))
    conv = draw(st.booleans())
    shape = (rows, cols, 3, 3) if conv else (rows, cols)
    seed = draw(st.integers(0, 2**32 - 1))
    return b, shape, seed


class TestPerTileScores:
    @given(
        layer=_tiled_layer(),
        c=st.floats(min_value=0.0, max_value=1.0),
        epsilon=st.floats(min_value=1e-3, max_value=10.0),
        step=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_pooled_scores_bitwise_equal_element_path(self, layer, c, epsilon, step):
        b, shape, seed = layer
        rng = np.random.default_rng(seed)
        param = Tensor(np.zeros(shape, dtype=np.float32))
        rows, cols = shape[0], int(np.prod(shape[1:]))
        indexer = MatrixBlockIndexer(rows, cols, b)
        tiles = rng.random((indexer.block_rows, indexer.block_cols)) < 0.5
        mask = np.kron(tiles, np.ones((b, b), dtype=bool)).reshape(shape)
        target = SparseParam("w", param, mask, 0.5, block_size=b)
        grad = rng.standard_normal(shape).astype(np.float32)
        counter = rng.integers(0, 20, tiles.shape).astype(np.float32)
        expanded = np.kron(counter, np.ones((b, b), dtype=np.float32)).reshape(shape)

        ctx = LayerContext(step=step, rng=rng, dense_grad=grad, counter=counter)
        per_tile = DSTEEGrowth(c=c, epsilon=epsilon).scores(target, ctx)
        element = acquisition_score(grad, expanded, max(step, 2), c, epsilon)
        np.testing.assert_array_equal(
            indexer.pool(per_tile.reshape(rows, cols)), indexer.pool(element.reshape(rows, cols))
        )


def _regrow_round(optimizer_factory):
    """A bound optimizer through one mask update in which every dropped
    tile is grown back: dropped tiles get the largest gradients."""
    model = MLP(in_features=8, hidden=(8,), num_classes=4, seed=0)
    masked = MaskedModel(model, 0.5, block_size=2, rng=np.random.default_rng(0))
    optimizer = optimizer_factory(model.parameters())
    masked.bind_optimizer(optimizer)
    engine = DynamicSparseEngine(
        masked, GradientGrowth(), schedule=TrainingSchedule(total_steps=100, delta_t=10),
        optimizer=optimizer, allow_regrow=True, rng=np.random.default_rng(1),
    )
    rng = np.random.default_rng(2)
    for _ in range(3):
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        masked.mask_gradients()
        optimizer.step()
    before = {t.name: optimizer.expanded_state(t.param) for t in masked.targets}
    masks = {t.name: t.mask.copy() for t in masked.targets}
    weights = {t.name: t.param.data.copy() for t in masked.targets}
    for t in masked.targets:
        t.param.grad = np.where(t.mask, 10.0, 0.0).astype(np.float32)
    record = engine.mask_update(10)
    return masked, optimizer, record, before, masks, weights


OPTIMIZERS = {
    "sgd": lambda params: SGD(params, lr=0.1, momentum=0.9),
    "sgd_nesterov": lambda params: SGD(params, lr=0.1, momentum=0.9, nesterov=True),
    "adam": lambda params: Adam(params, lr=1e-2),
}
# How a zero gradient moves each state array: one multiply.
DECAY = {"momentum": 0.9, "m": 0.9, "v": 0.999}


class TestRegrowSemantics:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_regrown_restart_at_zero_survivors_keep_state(self, name):
        masked, optimizer, record, before, masks, weights = _regrow_round(OPTIMIZERS[name])
        assert record.total_grown == record.total_dropped > 0
        regrown = {}
        for t in masked.targets:
            np.testing.assert_array_equal(t.mask, masks[t.name])
            regrown[t.name] = masks[t.name] & (t.param.data == 0.0) & (weights[t.name] != 0.0)
            survivors = masks[t.name] & ~regrown[t.name]
            state = optimizer.expanded_state(t.param)
            for key in before[t.name].keys() & DECAY.keys():
                assert not state[key][regrown[t.name]].any(), key
                np.testing.assert_array_equal(state[key][survivors], before[t.name][key][survivors])
        assert sum(int(r.sum()) for r in regrown.values()) == record.total_grown

        # The next step lays the state over the new active set: survivors
        # carry their state over, regrown weights start from zero.
        for p in optimizer.params:
            p.grad = np.zeros_like(p.data)
        optimizer.step()
        for t in masked.targets:
            survivors = masks[t.name] & ~regrown[t.name]
            state = optimizer.expanded_state(t.param)
            for key in before[t.name].keys() & DECAY.keys():
                expected = before[t.name][key] * DECAY[key]
                np.testing.assert_array_equal(state[key][survivors], expected[survivors])
                assert not state[key][~survivors].any(), key


class TestCharGPTEmbeddingRows:
    # At sparsity 0 the whole table is active: still only touched rows move.
    @pytest.mark.parametrize("sparsity", [0.5, 0.0])
    def test_untouched_rows_keep_weights_and_moments(self, sparsity):
        model = CharGPT(vocab_size=32, block_len=8, n_layer=1, n_head=2, n_embd=16, seed=0)
        masked = MaskedModel(model, sparsity, rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=1e-2)
        masked.bind_optimizer(optimizer)
        table = model.tok_emb.weight

        def step(ids):
            optimizer.zero_grad()
            logits = model(ids)
            lm_cross_entropy(logits, np.roll(ids, -1, axis=1)).backward()
            masked.mask_gradients()
            optimizer.step()

        first = np.array([[1, 2, 3, 1, 2, 3, 1, 2]])
        second = np.array([[7, 8, 9, 7, 8, 9, 7, 8]])
        step(first)
        after_first = optimizer.expanded_state(table)
        table_first = table.data.copy()
        step(second)
        after_second = optimizer.expanded_state(table)
        rows_first = [1, 2, 3]
        rows_second = [7, 8, 9]
        untouched = np.setdiff1d(np.arange(32), rows_first + rows_second)
        # Rows the second batch did not index: no weight move, no decay.
        np.testing.assert_array_equal(table.data[rows_first], table_first[rows_first])
        for key in ("m", "v"):
            np.testing.assert_array_equal(after_second[key][rows_first], after_first[key][rows_first])
            assert not after_second[key][untouched].any()
            assert after_second[key][rows_second].any()
        assert after_first["m"][rows_first].any()
