"""Graph release: a node's saved activations die once its backward has run,
and a second backward through the same graph raises instead of silently
leaving the parameter gradients unchanged."""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.models import CharGPT
from repro.nn.losses import lm_cross_entropy


def _char_gpt_step():
    """Forward of one tiny char-GPT batch: ``(model, logits, loss)``."""
    model = CharGPT(vocab_size=11, block_len=8, n_layer=1, n_head=2, n_embd=16, seed=0)
    rng = np.random.default_rng(0)
    inputs = rng.integers(0, 11, size=(4, 8))
    targets = rng.integers(0, 11, size=(4, 8))
    logits = model(inputs)
    return model, logits, lm_cross_entropy(logits, targets)


def _saved_arrays(root, keep):
    """Weakrefs to the arrays the graph under ``root`` holds, except ``keep``.

    Covers every op node's ``.data`` and every array a backward closure
    captured; parameters (leaves) and the arrays in ``keep`` are left out.
    """
    keep_ids = {id(array) for array in keep}
    refs, seen, stack = {}, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        arrays = [node.data]
        for cell in node._backward.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                arrays.append(cell.cell_contents)
        for array in arrays:
            if id(array) not in keep_ids:
                refs[id(array)] = weakref.ref(array)
        stack.extend(node._parents)
    return list(refs.values())


class TestReleaseContract:
    def test_saved_activations_die_as_backward_runs(self):
        model, logits, loss = _char_gpt_step()
        params = [p.data for p in model.parameters()]
        refs = _saved_arrays(loss, keep=[logits.data, loss.data, *params])
        assert len(refs) > 50
        gc.disable()
        try:
            loss.backward()
            # Released by reference counting alone, with ``loss`` and the
            # logits still referenced.
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert alive == 0
        assert loss._parents == () and logits._parents == ()

    def test_second_backward_raises_and_keeps_gradients(self):
        model, _, loss = _char_gpt_step()
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        loss_grad = loss.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        for param, grad in zip(model.parameters(), grads):
            np.testing.assert_array_equal(param.grad, grad)
        np.testing.assert_array_equal(loss.grad, loss_grad)

    def test_shared_node_raises_before_any_gradient_moves(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        y = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        shared = ops.mul(x, 2.0)
        ops.sum(ops.exp(shared)).backward()
        x_grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            ops.sum(ops.add(ops.mul(y, 3.0), shared)).backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, x_grad)

    def test_untouched_branch_keeps_its_graph(self):
        # A node the backward never reached (no gradient flowed into it)
        # keeps its closure, so it can still be backpropagated.
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        y = Tensor(np.full(3, 2.0), requires_grad=True)
        branch = ops.mul(y, 5.0)
        ops.sum(ops.mul(x, 3.0)).backward()
        ops.sum(branch).backward()
        np.testing.assert_array_equal(y.grad, np.full(3, 5.0))
