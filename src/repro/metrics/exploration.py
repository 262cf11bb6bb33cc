"""Exploration / coverage analysis, including the Figure-1 style cohort study.

Figure 1 of the paper shows that non-active weights with *small gradients*
at a mask-update step are ignored by greedy (RigL-style) growth, yet later
become high-magnitude — i.e. important.  :class:`GrownWeightCohortTracker`
quantifies this: at each mask update it records, for every weight the engine
grew, whether a pure-gradient rule would have selected it (its |grad| rank
among the inactive candidates); at the *next* update it measures the grown
weights' magnitude rank among active weights.  The Figure-1 bench then
reports, per layer, the fraction of grown-weights-that-became-important that
greedy growth would have missed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.engine import DynamicSparseEngine
from repro.sparse.masked import MaskedModel

__all__ = ["CohortRecord", "GrownWeightCohortTracker", "IgnoredImportantAnalysis"]


@dataclass
class CohortRecord:
    """One layer's grown cohort at one mask-update round."""

    round_index: int
    layer: str
    grown_idx: np.ndarray          # flat indices grown this round
    greedy_selected: np.ndarray    # bool: would pure top-|grad| have grown it?
    became_important: np.ndarray | None = None  # filled at the next round


class GrownWeightCohortTracker:
    """Track grown weights' gradient ranks and later magnitude ranks.

    Route every mask update through :meth:`observe_update` (with fresh dense
    gradients on the parameters).  Cohorts resolve — i.e. their
    ``became_important`` flags are measured — either at the *next* mask
    update (``horizon="next_update"``, one ΔT later, as in Figure 1's
    t=1000 → t=2000 snapshots) or at the end of training
    (``horizon="end"``, requiring a :meth:`finalize` call), which matches
    the paper's "as training continues" framing and is the right choice
    when ΔT is only a few steps.

    Parameters
    ----------
    masked:
        The masked model whose updates are observed.
    important_quantile:
        A grown weight "became important" when its |w| reaches this
        quantile of the layer's active weights (and it is still active).
    horizon:
        ``"next_update"`` or ``"end"``.
    """

    def __init__(
        self,
        masked: MaskedModel,
        important_quantile: float = 0.5,
        horizon: str = "next_update",
    ):
        if horizon not in ("next_update", "end"):
            raise ValueError(f"unknown horizon {horizon!r}")
        self.masked = masked
        self.important_quantile = float(important_quantile)
        self.horizon = horizon
        self.records: list[CohortRecord] = []
        self._pending: list[CohortRecord] = []

    def observe_update(self, engine: DynamicSparseEngine, step: int) -> None:
        """Snapshot masks+grads, run the engine's update, and record cohorts."""
        before = {t.name: t.mask.copy() for t in self.masked.targets}
        grads = {
            t.name: (t.param.grad.copy() if t.param.grad is not None else None)
            for t in self.masked.targets
        }
        record = engine.mask_update(step)
        if self.horizon == "next_update":
            self._resolve_pending()
        for target in self.masked.targets:
            old_mask = before[target.name].reshape(-1)
            new_mask = target.mask.reshape(-1)
            grown = np.flatnonzero(~old_mask & new_mask)
            if grown.size == 0:
                continue
            grad = grads[target.name]
            if grad is None:
                continue
            flat_grad = np.abs(grad.reshape(-1))
            # Greedy rule: top-k |grad| among previously-inactive candidates.
            candidates = np.flatnonzero(~old_mask)
            k = grown.size
            if candidates.size <= k:
                greedy_set = set(candidates.tolist())
            else:
                order = np.argpartition(-flat_grad[candidates], k - 1)[:k]
                greedy_set = set(candidates[order].tolist())
            greedy_selected = np.array([idx in greedy_set for idx in grown])
            self._pending.append(
                CohortRecord(
                    round_index=record.round_index,
                    layer=target.name,
                    grown_idx=grown,
                    greedy_selected=greedy_selected,
                )
            )

    def finalize(self) -> None:
        """Resolve all still-pending cohorts against the current weights.

        Call once after training when ``horizon="end"``.
        """
        self._resolve_pending()

    def _resolve_pending(self) -> None:
        """Measure magnitude ranks of the previous round's cohort."""
        if not self._pending:
            return
        by_layer = {t.name: t for t in self.masked.targets}
        for record in self._pending:
            target = by_layer[record.layer]
            weights = np.abs(target.param.data.reshape(-1))
            active = weights[target.mask.reshape(-1)]
            if active.size == 0:
                continue
            threshold = np.quantile(active, self.important_quantile)
            still_active = target.mask.reshape(-1)[record.grown_idx]
            record.became_important = (weights[record.grown_idx] >= threshold) & still_active
            self.records.append(record)
        self._pending = []

    # ------------------------------------------------------------------
    # summaries (the Figure 1 numbers)
    # ------------------------------------------------------------------
    def ignored_important_fraction_by_layer(self) -> dict[str, float]:
        """Per layer: of grown weights that became important, the fraction a
        greedy rule would NOT have grown (Figure 1's 'ignored' weights)."""
        ignored: dict[str, list[float]] = {}
        for record in self.records:
            if record.became_important is None:
                continue
            important = record.became_important
            if important.sum() == 0:
                continue
            missed = (~record.greedy_selected) & important
            ignored.setdefault(record.layer, []).append(
                float(missed.sum() / important.sum())
            )
        return {layer: float(np.mean(values)) for layer, values in ignored.items()}

    def layers_with_high_ignored_fraction(self, threshold: float = 0.9) -> int:
        """Count of layers whose average ignored fraction exceeds ``threshold``
        (the paper reports >90% in 12 of 16 conv layers)."""
        fractions = self.ignored_important_fraction_by_layer()
        return sum(1 for value in fractions.values() if value > threshold)


@dataclass
class _RoundSnapshot:
    """Per-layer snapshot of one mask-update round (pre-update state)."""

    round_index: int
    inactive: np.ndarray        # bool: weights inactive before the update
    greedy_topk: np.ndarray     # flat indices the greedy rule would grow
    k: int


class IgnoredImportantAnalysis:
    """The §I claim: greedy growth ignores inactive-but-important weights.

    The paper quantifies Figure 1 as ">90% of non-active but important
    weights are ignored in 12 out of 16 convolutional layers": at a mask
    update, the greedy (top-|grad|) candidate set covers only a small part
    of the inactive weights that *later become important* (high magnitude
    once DST-EE's exploration grows them).

    Protocol: call :meth:`observe_update` instead of ``engine.mask_update``
    during training (it snapshots the pre-update inactive set and the
    greedy top-k per layer, then delegates to the engine), and
    :meth:`finalize` after training.  ``ignored_fraction_by_layer`` then
    reports, per layer and averaged over rounds, the fraction of
    eventually-important pre-update-inactive weights missed by the greedy
    rule at that round.
    """

    def __init__(self, masked: MaskedModel, important_quantile: float = 0.5):
        self.masked = masked
        self.important_quantile = float(important_quantile)
        self._snapshots: dict[str, list[_RoundSnapshot]] = {
            t.name: [] for t in masked.targets
        }
        self._important: dict[str, np.ndarray] | None = None

    def observe_update(self, engine: DynamicSparseEngine, step: int) -> None:
        """Snapshot pre-update state, then run the engine's mask update.

        The stored "non-active" set matches Figure 1's red-line weights:
        weights that are inactive *and remain inactive through this round's
        update* (weights grown this round are the blue lines — by
        definition not ignored).
        """
        round_index = engine.coverage.rounds + 1
        pending: list[tuple[str, np.ndarray, np.ndarray, int]] = []
        for target in self.masked.targets:
            grad = target.param.grad
            if grad is None:
                continue
            flat_mask = target.mask.reshape(-1)
            inactive = ~flat_mask
            candidates = np.flatnonzero(inactive)
            if candidates.size == 0:
                continue
            k = min(
                int(engine.drop_schedule(step) * int(flat_mask.sum())),
                candidates.size,
            )
            if k <= 0:
                continue
            flat_grad = np.abs(grad.reshape(-1))
            order = np.argpartition(-flat_grad[candidates], k - 1)[:k]
            pending.append((target.name, inactive.copy(), candidates[order], k))
        engine.mask_update(step)
        post_inactive = {
            t.name: ~t.mask.reshape(-1) for t in self.masked.targets
        }
        for name, inactive, greedy_topk, k in pending:
            self._snapshots[name].append(
                _RoundSnapshot(
                    round_index=round_index,
                    inactive=inactive & post_inactive[name],
                    greedy_topk=greedy_topk,
                    k=k,
                )
            )

    def finalize(self) -> None:
        """Freeze the final importance sets (call once after training)."""
        self._important = {}
        for target in self.masked.targets:
            weights = np.abs(target.param.data.reshape(-1))
            flat_mask = target.mask.reshape(-1)
            active_values = weights[flat_mask]
            if active_values.size == 0:
                self._important[target.name] = np.zeros_like(flat_mask)
                continue
            threshold = np.quantile(active_values, self.important_quantile)
            self._important[target.name] = flat_mask & (weights >= threshold)

    def ignored_fraction_by_layer(self) -> dict[str, float]:
        """Per layer: mean over rounds of |important∩inactive \\ greedy| / |important∩inactive|."""
        if self._important is None:
            raise RuntimeError("call finalize() after training first")
        fractions: dict[str, float] = {}
        for name, snapshots in self._snapshots.items():
            important = self._important[name]
            per_round = []
            for snap in snapshots:
                eventually_important = important & snap.inactive
                count = int(eventually_important.sum())
                if count == 0:
                    continue
                greedy = np.zeros_like(important)
                greedy[snap.greedy_topk] = True
                missed = int((eventually_important & ~greedy).sum())
                per_round.append(missed / count)
            if per_round:
                fractions[name] = float(np.mean(per_round))
        return fractions
