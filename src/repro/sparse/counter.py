"""Coverage counters: the ``N_t`` tensors of Eq. 1 and the ITOP rate ``R``.

Per Algorithm 1 of the paper, each sparsified layer keeps a counter tensor
``N`` initialized to the initial mask; after every mask update the (new)
mask is added to it, so ``N[i]`` counts in how many mask-update rounds
weight ``i`` was active.  The exploration bonus ``c·ln(t)/(N+ε)`` ranks
never-active weights (N=0) above previously-active ones.

The tracker also maintains the "ever active" sets that define the ITOP
exploration rate ``R`` — the fraction of all sparsifiable weights activated
at least once during training (§III.C).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.masked import MaskedModel

__all__ = ["CoverageTracker"]


class CoverageTracker:
    """Occurrence counters + ever-active sets for a :class:`MaskedModel`."""

    def __init__(self, masked: MaskedModel):
        self.masked = masked
        self.counters: dict[str, np.ndarray] = {}
        self.ever_active: dict[str, np.ndarray] = {}
        for target in masked.targets:
            self.counters[target.name] = target.mask.astype(np.float32)
            self.ever_active[target.name] = target.mask.copy()
        self.rounds = 0
        self._total_size = sum(t.size for t in masked.targets)
        self._covered = masked.total_active

    def counter_for(self, name: str) -> np.ndarray:
        """The ``N`` tensor of one layer."""
        return self.counters[name]

    def recount(self) -> None:
        """Refresh the cached ever-active total after replacing the buffers
        directly (checkpoint restore does this)."""
        self._covered = sum(
            int(np.count_nonzero(self.ever_active[t.name]))
            for t in self.masked.targets
        )

    def update(self) -> None:
        """Accumulate the current masks (call once per mask-update round).

        Both accumulations run in place on the preallocated buffers; the
        ever-active total is maintained incrementally so the exploration
        rate is O(1) to read.
        """
        covered = 0
        for target in self.masked.targets:
            np.add(self.counters[target.name], target.mask, out=self.counters[target.name])
            ever = self.ever_active[target.name]
            np.logical_or(ever, target.mask, out=ever)
            covered += int(np.count_nonzero(ever))
        self._covered = covered
        self.rounds += 1

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of counters, ever-active sets and rounds."""
        return {
            "counters": {name: arr.copy() for name, arr in self.counters.items()},
            "ever_active": {name: arr.copy() for name, arr in self.ever_active.items()},
            "rounds": self.rounds,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (resume-exact)."""
        for name, saved in state["counters"].items():
            if name not in self.counters:
                raise KeyError(f"coverage counter for unknown layer {name!r}")
            np.copyto(self.counters[name], saved.reshape(self.counters[name].shape))
        for name, saved in state["ever_active"].items():
            if name not in self.ever_active:
                raise KeyError(f"ever-active set for unknown layer {name!r}")
            np.copyto(
                self.ever_active[name],
                saved.reshape(self.ever_active[name].shape).astype(bool),
            )
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
        return {t.name: float(self.ever_active[t.name].mean()) for t in self.masked.targets}

    def never_active_fraction(self) -> float:
        """Fraction of weights never activated (complement of ``R``)."""
        return 1.0 - self.exploration_rate()
