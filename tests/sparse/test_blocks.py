"""Block-structured sparsity: indexer geometry, COO masks, BSR kernels.

Covers the contracts the block path is built on: tile↔flat index round
trips, triplet (COO) edits that never scan the dense mask, element-level
CSR expansion against a scipy reference, ``block_size=1`` collapsing to
the unstructured trajectory bit-for-bit, BSR forward/input-grad parity
against the masked-dense path, and the non-divisible-shape fallback
semantics.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.autograd import Tensor
from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    BlockMask,
    BsrMatmul,
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    MatrixBlockIndexer,
    TrainingSchedule,
    expand_block_csr,
    install_training_backends,
    remove_training_backends,
    select_backend,
)

RNG = np.random.default_rng(7)


class TestMatrixBlockIndexer:
    def test_rejects_non_divisible_shapes(self):
        with pytest.raises(ValueError, match="not divisible"):
            MatrixBlockIndexer(10, 8, 4)
        with pytest.raises(ValueError, match="not divisible"):
            MatrixBlockIndexer(8, 10, 4)
        with pytest.raises(ValueError, match="block_size"):
            MatrixBlockIndexer(8, 8, 0)

    def test_expand_blocks_round_trip(self):
        idx = MatrixBlockIndexer(12, 8, 4)
        blocks = np.array([0, 3, 5])
        elements = idx.expand_blocks(blocks)
        assert elements.shape == (3, 16)
        # Every expanded element maps back to the block it came from.
        back = idx.blocks_of_flat(elements.reshape(-1))
        np.testing.assert_array_equal(back, np.repeat(blocks, 16))

    def test_expand_blocks_tile_layout(self):
        idx = MatrixBlockIndexer(4, 4, 2)
        # Block 3 is the bottom-right 2x2 tile of a 4x4 matrix.
        tile = idx.expand_blocks(np.array([3]))[0]
        np.testing.assert_array_equal(tile, [10, 11, 14, 15])

    def test_pool_matches_naive_tile_mean(self):
        idx = MatrixBlockIndexer(8, 12, 4)
        values = RNG.standard_normal((8, 12))
        naive = idx.block_view(values).mean(axis=(2, 3)).reshape(-1)
        np.testing.assert_allclose(idx.pool(values), naive, atol=1e-12)

    def test_pool_block_size_one_is_identity(self):
        idx = MatrixBlockIndexer(3, 5, 1)
        values = RNG.standard_normal((3, 5))
        np.testing.assert_array_equal(idx.pool(values), values.reshape(-1))


class TestBlockMask:
    def test_coo_dense_round_trip(self):
        idx = MatrixBlockIndexer(16, 8, 4)
        active = np.array([1, 4, 7])
        mask = BlockMask(idx, active)
        dense = mask.to_dense()
        assert dense.sum() == active.size * 16
        rebuilt = BlockMask.from_dense(idx, dense)
        np.testing.assert_array_equal(rebuilt.active_blocks, active)
        # Triplet view reconstructs the same dense mask independently.
        brow, bcol, b = mask.triplets()
        manual = np.zeros((16, 8), dtype=bool)
        for r, c in zip(brow, bcol):
            manual[r * b:(r + 1) * b, c * b:(c + 1) * b] = True
        np.testing.assert_array_equal(manual, dense)

    def test_from_dense_rejects_partial_tiles(self):
        idx = MatrixBlockIndexer(8, 8, 4)
        dense = np.zeros((8, 8), dtype=bool)
        dense[0, 0] = True  # one element of a 16-element tile
        with pytest.raises(ValueError, match="partially active"):
            BlockMask.from_dense(idx, dense)

    def test_rejects_out_of_range_ids(self):
        idx = MatrixBlockIndexer(8, 8, 4)
        with pytest.raises(ValueError, match="block ids"):
            BlockMask(idx, np.array([0, 4]))  # n_blocks == 4

    def test_drop_and_grow_are_set_operations(self):
        idx = MatrixBlockIndexer(16, 16, 4)
        mask = BlockMask(idx, np.array([2, 5, 9, 14]))
        mask.drop(np.array([5, 14, 5]))
        np.testing.assert_array_equal(mask.active_blocks, [2, 9])
        mask.drop(np.array([11]))  # not active: ignored
        np.testing.assert_array_equal(mask.active_blocks, [2, 9])
        mask.grow(np.array([0, 9, 15]))  # duplicate 9 merges
        np.testing.assert_array_equal(mask.active_blocks, [0, 2, 9, 15])
        assert mask.active_count == 4
        assert mask.density() == pytest.approx(4 / 16)

    def test_constructor_dedups_and_sorts(self):
        idx = MatrixBlockIndexer(8, 8, 2)
        mask = BlockMask(idx, np.array([9, 1, 9, 3, 1]))
        np.testing.assert_array_equal(mask.active_blocks, [1, 3, 9])


class TestExpandBlockCsr:
    @pytest.mark.parametrize("shape,b", [((8, 8), 2), ((12, 8), 4), ((6, 9), 3)])
    def test_matches_scipy_bsr_structure(self, shape, b):
        rows, cols = shape
        block_rows, block_cols = rows // b, cols // b
        n_blocks = block_rows * block_cols
        active = np.sort(
            RNG.choice(n_blocks, size=max(1, n_blocks // 3), replace=False)
        )
        indptr, indices, erows = expand_block_csr(active, block_rows, block_cols, b)

        dense = np.zeros((rows, cols), dtype=np.float32)
        brow, bcol = np.divmod(active, block_cols)
        values = RNG.standard_normal((active.size, b, b)).astype(np.float32)
        for k, (r, c) in enumerate(zip(brow, bcol)):
            dense[r * b:(r + 1) * b, c * b:(c + 1) * b] = values[k]
        reference = sp.csr_matrix(dense)
        np.testing.assert_array_equal(indptr, reference.indptr)
        np.testing.assert_array_equal(indices, reference.indices)
        # (rows, indices) gathers CSR-ordered values from the flat dense.
        np.testing.assert_array_equal(
            dense.reshape(-1)[erows * cols + indices], reference.data
        )

    def test_empty_active_set(self):
        indptr, indices, erows = expand_block_csr(np.empty(0, dtype=np.int64), 3, 2, 4)
        assert indices.size == 0 and erows.size == 0
        np.testing.assert_array_equal(indptr, np.zeros(13, dtype=np.int32))


class TestBsrMatmul:
    def _target(self, sparsity=0.75, b=4, shape=(16, 24)):
        model = nn.Linear(shape[1], shape[0], rng=np.random.default_rng(0))
        masked = MaskedModel(
            model, sparsity, distribution="uniform",
            rng=np.random.default_rng(1), block_size=b,
        )
        return model, masked.targets[0]

    def test_products_bitwise_match_scipy_csr(self):
        model, target = self._target()
        matmul = BsrMatmul(target.shape2d, target.block_size)
        flat = model.weight.data.reshape(-1) * target.mask.reshape(-1)
        matmul.sync(flat, target)

        weight2d = flat.reshape(target.shape2d)
        reference = sp.csr_matrix(weight2d)
        x_t = np.ascontiguousarray(
            RNG.standard_normal((target.shape2d[1], 8)).astype(np.float32)
        )
        np.testing.assert_array_equal(matmul.matmul_wx(x_t), reference @ x_t)
        g_t = np.ascontiguousarray(
            RNG.standard_normal((target.shape2d[0], 8)).astype(np.float32)
        )
        np.testing.assert_array_equal(
            matmul.matmul_wtg(g_t), sp.csr_matrix(weight2d.T) @ g_t
        )

    def test_scatter_grad_w_matches_masked_dense_gradient(self):
        model, target = self._target()
        matmul = BsrMatmul(target.shape2d, target.block_size)
        flat = model.weight.data.reshape(-1) * target.mask.reshape(-1)
        matmul.sync(flat, target)
        rows, cols = target.shape2d
        g_t = np.ascontiguousarray(RNG.standard_normal((rows, 8)).astype(np.float32))
        x_t = np.ascontiguousarray(RNG.standard_normal((cols, 8)).astype(np.float32))
        grad_w = matmul.grad_w_buffer((rows, cols))
        matmul.scatter_grad_w(g_t, x_t, grad_w)
        dense_grad = (g_t @ x_t.T) * target.mask
        np.testing.assert_allclose(grad_w, dense_grad, atol=1e-5)
        # Inactive coordinates are exactly zero, not merely small.
        np.testing.assert_array_equal(grad_w[~target.mask.astype(bool)], 0.0)


def _block_mlp(sparsity=0.75, seed=0, block_size=4):
    model = MLP(in_features=24, hidden=(32, 16), num_classes=8, seed=seed)
    masked = MaskedModel(
        model, sparsity, distribution="uniform",
        rng=np.random.default_rng(seed + 1), block_size=block_size,
    )
    return model, masked


def _block_conv(sparsity=0.75, seed=0, block_size=4):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, stride=1, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, stride=2, padding=1, rng=rng),
    )
    masked = MaskedModel(
        model, sparsity, distribution="uniform",
        rng=np.random.default_rng(seed + 1), block_size=block_size,
    )
    return model, masked


class TestBsrBackendParity:
    def test_linear_forward_and_grads_match_masked_dense(self):
        model, masked = _block_mlp()
        x = Tensor(RNG.standard_normal((8, 24)).astype(np.float32))
        y = RNG.integers(0, 8, size=8)

        model.zero_grad()
        loss_dense = nn.cross_entropy(model(x), y)
        loss_dense.backward()
        masked.mask_gradients()
        grads_dense = {name: p.grad.copy() for name, p in model.named_parameters()}

        report = install_training_backends(masked, mode="bsr", min_size=1)
        assert "bsr" in set(report.values())
        model.zero_grad()
        loss_bsr = nn.cross_entropy(model(x), y)
        loss_bsr.backward()
        masked.mask_gradients()

        assert loss_bsr.item() == pytest.approx(loss_dense.item(), abs=1e-6)
        for name, param in model.named_parameters():
            np.testing.assert_allclose(
                param.grad, grads_dense[name], atol=1e-5,
                err_msg=f"gradient mismatch for {name}",
            )
        remove_training_backends(model)

    def test_conv_forward_and_input_grad_match_masked_dense(self):
        model, masked = _block_conv()
        x_data = RNG.standard_normal((2, 4, 8, 8)).astype(np.float32)

        x_dense = Tensor(x_data.copy(), requires_grad=True)
        model.zero_grad()
        out_dense = model(x_dense)
        out_dense.backward(np.ones(out_dense.shape, dtype=np.float32))
        masked.mask_gradients()
        grads_dense = {name: p.grad.copy() for name, p in model.named_parameters()}
        input_grad_dense = x_dense.grad.copy()

        install_training_backends(masked, mode="bsr", min_size=1)
        x_bsr = Tensor(x_data.copy(), requires_grad=True)
        model.zero_grad()
        out_bsr = model(x_bsr)
        np.testing.assert_allclose(out_bsr.data, out_dense.data, atol=1e-5)
        out_bsr.backward(np.ones(out_bsr.shape, dtype=np.float32))
        masked.mask_gradients()

        np.testing.assert_allclose(x_bsr.grad, input_grad_dense, atol=1e-5)
        for name, param in model.named_parameters():
            np.testing.assert_allclose(
                param.grad, grads_dense[name], atol=1e-4,
                err_msg=f"gradient mismatch for {name}",
            )
        remove_training_backends(model)


class TestBlockEngine:
    def _train(self, block_size, steps=16, backend=None):
        model, masked = _block_mlp(block_size=block_size)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        masked.bind_optimizer(optimizer)
        if backend is not None:
            install_training_backends(masked, mode=backend, min_size=1)
        engine = DynamicSparseEngine(
            masked,
            DSTEEGrowth(c=1e-3),
            schedule=TrainingSchedule(total_steps=steps * 4, delta_t=4, drop_fraction=0.3),
            optimizer=optimizer,
            rng=np.random.default_rng(5),
        )
        rng = np.random.default_rng(9)
        for step in range(steps):
            x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
            y = rng.integers(0, 8, size=8)
            engine.before_backward(step)
            model.zero_grad()
            loss = nn.cross_entropy(model(x), y)
            loss.backward()
            if not engine.on_backward(step):
                optimizer.step()
                engine.after_step(step)
        return model, masked, engine

    def test_block_size_one_is_unstructured_identity(self):
        """``block_size=1`` must be the unstructured trajectory, bitwise."""
        model_ref, masked_ref = _block_mlp(block_size=1)
        model_one = MLP(in_features=24, hidden=(32, 16), num_classes=8, seed=0)
        masked_one = MaskedModel(
            model_one, 0.75, distribution="uniform",
            rng=np.random.default_rng(1),
        )
        for t_ref, t_one in zip(masked_ref.targets, masked_one.targets):
            assert t_ref.block_size == t_one.block_size == 1
            np.testing.assert_array_equal(t_ref.mask, t_one.mask)

        model_a, masked_a, _ = self._train(block_size=1)
        # Same config trained through the explicit block_size=1 path again
        # (fresh everything) must reproduce itself exactly.
        model_b, masked_b, _ = self._train(block_size=1)
        for p_a, p_b in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(p_a.data, p_b.data)
        for t_a, t_b in zip(masked_a.targets, masked_b.targets):
            np.testing.assert_array_equal(t_a.mask, t_b.mask)

    def test_drop_and_grow_preserves_block_structure(self):
        _, masked, engine = self._train(block_size=4)
        assert engine.history, "no mask updates ran"
        for target in masked.targets:
            assert target.block_size == 4
            rows, cols = target.shape2d
            idx = MatrixBlockIndexer(rows, cols, 4)
            # from_dense validates that no tile is partially active.
            block = BlockMask.from_dense(idx, target.mask.reshape(rows, cols))
            np.testing.assert_array_equal(block.active_blocks, target.active_blocks)

    def test_bsr_backend_trains_with_engine(self):
        model, masked, engine = self._train(block_size=4, backend="bsr")
        assert engine.history
        # Weights outside the mask stayed exactly zero through training.
        for target in masked.targets:
            off = ~target.mask.astype(bool)
            np.testing.assert_array_equal(target.param.data[off], 0.0)


class TestFallbackSemantics:
    def test_non_divisible_layer_falls_back_to_unstructured(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),   # 3*9=27 cols: not /4
            nn.ReLU(),
            nn.Conv2d(8, 8, 3, padding=1, rng=rng),   # 72 cols: divisible
        )
        masked = MaskedModel(
            model, 0.5, distribution="uniform",
            rng=np.random.default_rng(1), block_size=4,
        )
        by_block = {t.block_size for t in masked.targets}
        assert by_block == {1, 4}
        fallback = [t for t in masked.targets if t.block_size == 1]
        assert len(fallback) == 1
        assert masked.block_fallbacks == [fallback[0].name]
        with pytest.raises(ValueError, match="unstructured"):
            fallback[0].active_blocks  # noqa: B018 - block view must refuse

    def test_underflow_density_raises_by_default(self):
        # 8x8 layer = 4 blocks of 4x4; density 0.1 rounds to zero blocks,
        # so the min-one-block floor would silently inflate it to 0.25.
        model = nn.Sequential(nn.Linear(8, 8, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError, match="rounds to zero blocks"):
            MaskedModel(
                model, 0.9, distribution="uniform",
                rng=np.random.default_rng(1), block_size=4,
            )

    def test_underflow_opt_in_falls_back_to_unstructured(self):
        model = nn.Sequential(
            nn.Linear(8, 8, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.Linear(8, 64, rng=np.random.default_rng(0)),
        )
        masked = MaskedModel(
            model, 0.9, distribution="uniform",
            rng=np.random.default_rng(1), block_size=4,
            block_underflow="unstructured",
        )
        small, big = masked.targets
        # The 4-block layer trains unstructured at its true density...
        assert small.block_size == 1
        assert masked.block_fallbacks == [small.name]
        assert small.target_density == pytest.approx(0.1)
        # ...while the big layer keeps its quantized block masks.
        assert big.block_size == 4
        assert big.active_count % 16 == 0

    def test_underflow_mode_is_validated(self):
        model = nn.Sequential(nn.Linear(8, 8, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError, match="block_underflow"):
            MaskedModel(model, 0.5, block_size=4, block_underflow="ignore")

    def test_auto_mode_routes_fallback_layers_to_unstructured(self):
        # A block layer under explicit bsr mode is forced sparse...
        assert select_backend(0.5, 128, "bsr", block_size=4) == "bsr"
        # ...while a fallback (block_size=1) layer goes through the auto
        # thresholds: sparse only when small+dense enough, and never bsr.
        assert select_backend(0.05, 1 << 20, "bsr", 0.12, 1024, block_size=1) == "csr"
        assert select_backend(0.5, 128, "bsr", 0.12, 1024, block_size=1) == "dense"

    def test_install_reports_mixed_backends(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        )
        masked = MaskedModel(
            model, 0.9, distribution="uniform",
            rng=np.random.default_rng(1), block_size=4,
        )
        report = install_training_backends(masked, mode="bsr", min_size=1)
        values = set(report.values())
        assert "bsr" in values and "bsr" != values  # mixed: fallback differs
        remove_training_backends(model)
