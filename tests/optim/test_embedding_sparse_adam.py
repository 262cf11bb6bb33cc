"""Embedding × bound optimizer: lazy SparseAdam-style touched-row updates.

Embedding gradients are sparse by construction (scatter-add from the id
lookup), but a bound optimizer restricted only to *active* coordinates
would still decay the Adam moments of every unmasked row — including rows
the batch never indexed — and move their weights from stale momentum.
`MaskedModel.bind_optimizer` therefore restricts embedding index sets to
touched rows (`_touched_rows_provider`); these are the regression tests
for that contract.
"""

import numpy as np

from repro import nn
from repro.nn.losses import cross_entropy
from repro.optim import Adam
from repro.sparse import MaskedModel


class TinyLM(nn.Module):
    """Embedding + linear head: ids (N,) -> logits (N, vocab)."""

    def __init__(self, vocab: int = 12, dim: int = 8, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.emb = nn.Embedding(vocab, dim, rng=rng)
        self.head = nn.Linear(dim, vocab, rng=rng)

    def forward(self, ids):
        return self.head(self.emb(ids))


def _one_bound_step(seed=0, steps=1, ids=None):
    model = TinyLM(seed=seed)
    masked = MaskedModel(
        model, 0.5, distribution="uniform", rng=np.random.default_rng(1)
    )
    optimizer = Adam(model.parameters(), lr=1e-2)
    masked.bind_optimizer(optimizer)
    ids = np.array([1, 4, 4, 7]) if ids is None else ids
    targets = np.arange(ids.size) % 12
    for _ in range(steps):
        optimizer.zero_grad()
        loss = cross_entropy(model(ids), targets)
        loss.backward()
        masked.mask_gradients()
        optimizer.step()
    return model, masked, optimizer, ids


class TestTouchedRowSemantics:
    def test_untouched_rows_get_no_weight_or_moment_update(self):
        model, masked, optimizer, ids = _one_bound_step()
        table_before = TinyLM(seed=0).emb.weight.data.copy()
        # Re-apply the same initial masks so the untouched comparison sees
        # the masked initial table, not the raw init.
        mask = next(
            t.mask for t in masked.targets if t.param is model.emb.weight
        )
        table_before *= mask
        touched = np.unique(ids)
        untouched = np.setdiff1d(np.arange(12), touched)
        np.testing.assert_array_equal(
            model.emb.weight.data[untouched], table_before[untouched]
        )
        state = optimizer.expanded_state(model.emb.weight)
        assert not state["m"].reshape(12, 8)[untouched].any()
        assert not state["v"].reshape(12, 8)[untouched].any()

    def test_touched_active_rows_do_update(self):
        model, masked, optimizer, ids = _one_bound_step()
        reference = TinyLM(seed=0).emb.weight.data
        mask = next(
            t.mask for t in masked.targets if t.param is model.emb.weight
        ).reshape(12, 8)
        touched = np.unique(ids)
        for row in touched:
            active = mask[row].astype(bool)
            if active.any():
                assert not np.array_equal(
                    model.emb.weight.data[row][active],
                    (reference[row] * mask[row])[active],
                )

    def test_masked_coordinates_stay_exactly_zero(self):
        model, masked, _, _ = _one_bound_step(steps=5)
        for target in masked.targets:
            inactive = target.mask.reshape(target.param.shape) == 0
            assert np.all(target.param.data[inactive] == 0.0)

    def test_bound_step_is_deterministic(self):
        model_a, _, opt_a, _ = _one_bound_step(steps=3)
        model_b, _, opt_b, _ = _one_bound_step(steps=3)
        np.testing.assert_array_equal(
            model_a.emb.weight.data, model_b.emb.weight.data
        )
        np.testing.assert_array_equal(
            opt_a.state_for(model_a.emb.weight)["m"],
            opt_b.state_for(model_b.emb.weight)["m"],
        )

    def test_all_rows_touched_matches_plain_active_binding(self):
        """When every row is touched the restriction is a no-op: the update
        must equal the plain active-coordinate bound step bitwise."""
        all_ids = np.arange(12)
        model_t, _, _, _ = _one_bound_step(ids=all_ids)

        model = TinyLM(seed=0)
        masked = MaskedModel(
            model, 0.5, distribution="uniform", rng=np.random.default_rng(1)
        )
        optimizer = Adam(model.parameters(), lr=1e-2)
        emb_target = next(t for t in masked.targets if t.param is model.emb.weight)
        providers = {
            id(t.param): (lambda t=t: t.active_indices) for t in masked.targets
        }
        optimizer.bind_sparse_indices(providers)
        optimizer.zero_grad()
        loss = cross_entropy(model(all_ids), np.arange(12) % 12)
        loss.backward()
        masked.mask_gradients()
        optimizer.step()
        assert emb_target is not None
        np.testing.assert_array_equal(
            model_t.emb.weight.data, model.emb.weight.data
        )
