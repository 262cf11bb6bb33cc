"""Coverage counters: the ``N_t`` tensors of Eq. 1 and the ITOP rate ``R``.

Per Algorithm 1 of the paper, each sparsified layer keeps a counter tensor
``N`` initialized to the initial mask; after every mask update the (new)
mask is added to it, so ``N[i]`` counts in how many mask-update rounds
weight ``i`` was active.  The exploration bonus ``c·ln(t)/(N+ε)`` ranks
never-active weights (N=0) above previously-active ones.

``N`` is stored per drop/grow unit, the ``B×B`` tile (shape ``(rows/B,
cols/B)`` of the layer's 2-D view; one entry per weight at ``B = 1``).  The
"ever active" sets of the ITOP exploration rate ``R`` — the fraction of all
sparsifiable weights activated at least once (§III.C) — are ``N > 0``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.masked import MaskedModel, SparseParam

__all__ = ["CoverageTracker"]


def _unit_mask(target: SparseParam) -> np.ndarray:
    """The mask at one element per tile (a strided view of tile corners)."""
    b = target.block_size
    return target.mask.reshape(target.shape2d)[::b, ::b]


def _expand(target: SparseParam, units: np.ndarray) -> np.ndarray:
    """Per-tile ``units`` repeated over each tile, in the weight's shape."""
    b = target.block_size
    return units.repeat(b, axis=0).repeat(b, axis=1).reshape(target.mask.shape)


class CoverageTracker:
    """Per-unit occurrence counters for a :class:`MaskedModel`."""

    def __init__(self, masked: MaskedModel):
        self.masked = masked
        self.counters: dict[str, np.ndarray] = {
            t.name: _unit_mask(t).astype(np.float32) for t in masked.targets
        }
        self.rounds = 0
        self._total_size = sum(t.size for t in masked.targets)
        self.recount()

    def counter_for(self, name: str) -> np.ndarray:
        """The per-unit ``N`` of one layer."""
        return self.counters[name]

    @property
    def ever_active(self) -> dict[str, np.ndarray]:
        """Per layer, the units active in at least one round (``N > 0``)."""
        return {name: counter > 0 for name, counter in self.counters.items()}

    def _covered_in(self, target: SparseParam) -> int:
        """Weights of one layer active in at least one round."""
        return int(np.count_nonzero(self.counters[target.name])) * target.block_size**2

    def recount(self) -> None:
        """Refresh the cached ever-active weight total from the counters."""
        self._covered = sum(self._covered_in(t) for t in self.masked.targets)

    def update(self) -> None:
        """Accumulate the current masks (call once per mask-update round).

        In place on the preallocated counters; the ever-active total is
        recounted, so the exploration rate is O(1) to read.
        """
        for target in self.masked.targets:
            counter = self.counters[target.name]
            np.add(counter, _unit_mask(target), out=counter)
        self.recount()
        self.rounds += 1

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of counters, ever-active sets and rounds,
        expanded to the weight's shape as checkpoint files have always had."""
        targets = self.masked.targets
        return {
            "counters": {t.name: _expand(t, self.counters[t.name]) for t in targets},
            "ever_active": {t.name: _expand(t, self.counters[t.name] > 0) for t in targets},
            "rounds": self.rounds,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (resume-exact).

        Saved ever-active sets are not read (they are ``N > 0``); counters
        that vary inside a tile are rejected.
        """
        by_name = {t.name: t for t in self.masked.targets}
        for name, saved in state["counters"].items():
            if name not in by_name:
                raise KeyError(f"coverage counter for unknown layer {name!r}")
            target = by_name[name]
            b = target.block_size
            units = saved.reshape(target.shape2d)[::b, ::b]
            if not np.array_equal(_expand(target, units), saved.reshape(target.mask.shape)):
                raise ValueError(f"coverage counters of {name!r} vary inside a tile")
            np.copyto(self.counters[name], units)
        self.rounds = int(state["rounds"])
        self.recount()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def exploration_rate(self) -> float:
        """ITOP rate ``R``: fraction of sparsifiable weights ever activated."""
        return self._covered / self._total_size

    def layer_exploration_rates(self) -> dict[str, float]:
        """Per-layer ever-active fraction."""
        return {t.name: self._covered_in(t) / t.size for t in self.masked.targets}

    def never_active_fraction(self) -> float:
        """Fraction of weights never activated (complement of ``R``)."""
        return 1.0 - self.exploration_rate()
