"""The drop-and-grow engine (Algorithm 1 of the paper) and fixed-mask training.

:class:`DynamicSparseEngine` implements the paper's training loop semantics:

* every iteration, gradients outside the mask are zeroed before the
  optimizer step, so only active weights train;
* every ``ΔT`` iterations (while ``t < stop_step``) the optimizer step is
  *replaced* by a mask update: per layer, ``k_i`` active weights with the
  lowest drop-rule score are deactivated and ``k_i`` inactive weights with
  the highest growth-rule score are activated (newly grown weights start at
  zero with reset optimizer state);
* the coverage counters ``N`` are advanced after every mask update
  (``N ← N + M``), driving DST-EE's exploration bonus.

The engine is strategy-agnostic: DST-EE, RigL, SET, SNFS, DeepR, MEST and
DSR are all configurations of drop rule × growth rule × allocation (see
:mod:`repro.sparse.growers` and the method registry in
:mod:`repro.experiments.registry`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.optim.sgd import Optimizer
from repro.sparse.budget import DensityBudget, assign_target_density
from repro.sparse.counter import CoverageTracker
from repro.sparse.growers import (
    DropRule,
    GrowthRule,
    LayerContext,
    MagnitudeDrop,
)
from repro.sparse.masked import MaskedModel, SparseParam
from repro.sparse.schedule import TrainingSchedule
from repro.rng import resolve_rng

__all__ = ["SparsityController", "FixedMaskController", "DynamicSparseEngine"]


class SparsityController:
    """Protocol between the trainer and any sparsification scheme.

    ``on_backward`` runs after the backward pass; returning True tells the
    trainer to skip the optimizer step (used by mask-update iterations,
    Algorithm 1).  ``after_step`` runs after each optimizer step.

    ``state_dict`` / ``load_state_dict`` support resume-exact checkpointing
    (:mod:`repro.train.checkpoint`).  The base implementation captures the
    masks, the masked model's :class:`~repro.sparse.budget.DensityBudget`
    and the per-layer target densities, so a resumed run reproduces any
    rebalancing the saved run had applied; controllers with more evolving
    state extend it.

    Unified construction (see docs/controllers.md): every controller
    accepts ``(masked, schedule, budget, ...)`` where ``schedule`` is a
    :class:`~repro.sparse.schedule.TrainingSchedule` and ``budget`` a
    :class:`~repro.sparse.budget.DensityBudget` (defaulting to
    ``masked.budget``); method-specific knobs stay keyword arguments.
    """

    masked: MaskedModel

    def before_backward(self, step: int) -> None:
        """Optional hook called with the step number before its backward.

        Lets a controller tell the kernels what the coming backward must
        produce (e.g. whether dense weight gradients are needed).  The
        base implementation does nothing; training loops that never call
        it get the always-safe default (dense gradients every step).
        """

    def on_backward(self, step: int) -> bool:
        raise NotImplementedError

    def after_step(self, step: int) -> None:
        raise NotImplementedError

    def on_epoch_end(self, epoch: int) -> None:
        """Optional hook (dense-to-sparse schedules use it)."""

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (base: type, masks, budget, densities)."""
        masked = getattr(self, "masked", None)
        state: dict = {"type": type(self).__name__}
        if masked is not None:
            state["masks"] = masked.masks_snapshot()
            budget = getattr(masked, "budget", None)
            if budget is not None:
                state["budget"] = budget.state_dict()
                state["target_densities"] = {
                    t.name: float(t.target_density) for t in masked.targets
                }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        saved_type = state.get("type", type(self).__name__)
        if saved_type != type(self).__name__:
            raise ValueError(
                f"checkpoint controller is {saved_type!r}, "
                f"this controller is {type(self).__name__!r}"
            )
        masked = getattr(self, "masked", None)
        if masked is None or "masks" not in state:
            return
        by_name = {t.name: t for t in masked.targets}
        for name, mask in state["masks"].items():
            if name not in by_name:
                raise KeyError(f"checkpoint mask for unknown layer {name!r}")
            target = by_name[name]
            if mask.shape != target.mask.shape:
                raise ValueError(
                    f"mask shape mismatch for {name!r}: "
                    f"{mask.shape} vs {target.mask.shape}"
                )
            # Direct assignment (not MaskedModel.set_masks): target_density
            # is restored below from the checkpoint itself — for a run that
            # never rebalanced this equals the distribution-derived value a
            # fresh construction computes, and for a rebalanced run it is
            # the value the saved run was actually training at.
            target.mask = mask.astype(bool)
        if "budget" in state:
            masked.budget.load_state_dict(state["budget"])
        for name, density in state.get("target_densities", {}).items():
            if name not in by_name:
                raise KeyError(f"checkpoint density for unknown layer {name!r}")
            assign_target_density(by_name[name], density)
        masked.apply_masks()


class FixedMaskController(SparsityController):
    """Static-mask sparse training (SNIP/GraSP/SynFlow after pruning)."""

    def __init__(
        self,
        masked: MaskedModel,
        schedule: TrainingSchedule | None = None,
        budget: DensityBudget | None = None,
    ):
        # Unified signature: a fixed mask has no timing and its budget is
        # frozen at construction, so both are accepted (for build_method
        # uniformity) and only recorded.
        self.masked = masked
        self.schedule = schedule
        self.budget = budget if budget is not None else masked.budget

    def on_backward(self, step: int) -> bool:
        self.masked.mask_gradients()
        return False

    def after_step(self, step: int) -> None:
        if self.masked.per_step_apply_needed:
            self.masked.apply_masks()


@dataclass
class MaskUpdateRecord:
    """Bookkeeping for one drop-and-grow round (feeds Fig. 3 and tests).

    ``duration_ms`` is the wall-clock cost of the round (the ΔT overhead the
    perf bench reports); ``rebalanced`` is the number of elements the
    round's rebalancing phase moved *into* layers (inter-layer transfer
    volume, 0 when no rebalancer is attached).  Both default so checkpoints
    written before the fields existed still load.
    """

    step: int
    round_index: int
    drop_fraction: float
    total_dropped: int
    total_grown: int
    exploration_rate: float
    global_density: float
    duration_ms: float = 0.0
    rebalanced: int = 0


class DynamicSparseEngine(SparsityController):
    """Drop-and-grow dynamic sparse training (Algorithm 1).

    Parameters
    ----------
    masked:
        The :class:`MaskedModel` whose masks evolve.
    growth_rule, drop_rule:
        Strategy objects from :mod:`repro.sparse.growers`.
    schedule:
        A :class:`~repro.sparse.schedule.TrainingSchedule`: the horizon
        ``total_steps``, the mask-update period ``delta_t``, the initial
        ``drop_fraction`` of active weights moved per update and its
        ``drop_schedule`` annealing, and the ``stop_fraction`` of training
        after which the topology is frozen.
    optimizer:
        If given, its per-parameter state (momentum) is zeroed at newly
        grown coordinates.
    allow_regrow:
        Whether a weight dropped in this round may be regrown in the same
        round (off by default, matching ITOP-style implementations).
    global_drop:
        Pool the drop ranking across layers (DSR behaviour) instead of
        per-layer ``k_i``.
    grow_allocation:
        ``"per_layer"`` grows exactly where it dropped; ``"proportional"``
        (DSR) redistributes the global growth budget proportionally to each
        layer's remaining active count.
    grad_ema_beta:
        Smoothing for the dense-gradient EMA (only maintained when the
        growth rule requires it, e.g. SNFS).
    rng:
        Randomness for random growth and tie-breaking.
    budget:
        The :class:`~repro.sparse.budget.DensityBudget` the engine keeps
        the masks converged to (default: ``masked.budget``).  Mutating it —
        via ``rebalancer`` or externally (e.g. the GAN balancer) — makes
        the next mask update drop/grow asymmetrically per layer until the
        masks match the allocations again, conserving the global budget.
    rebalancer:
        Optional object with ``rebalance(masked, budget, step) -> dict``
        (and ``state_dict``/``load_state_dict``), called at the start of
        every mask update to move allocation between layers (see
        :class:`repro.sparse.balance.GradientMassRebalancer`).
    """

    # Pure strategy/schedule objects: their outputs depend only on
    # construction-time config and the step they are called with, so resume
    # correctness does not depend on checkpointing them.  (Mask state,
    # ``history``, the budget and the rebalancer ARE checkpointed, in
    # state_dict().)
    CHECKPOINT_EXEMPT = {"drop_rule", "update_schedule", "drop_schedule", "schedule"}

    def __init__(
        self,
        masked: MaskedModel,
        growth_rule: GrowthRule,
        *,
        schedule: TrainingSchedule,
        drop_rule: DropRule | None = None,
        optimizer: Optimizer | None = None,
        allow_regrow: bool = False,
        global_drop: bool = False,
        grow_allocation: str = "per_layer",
        grad_ema_beta: float = 0.9,
        rng: np.random.Generator | None = None,
        budget: DensityBudget | None = None,
        rebalancer=None,
    ):
        if grow_allocation not in ("per_layer", "proportional"):
            raise ValueError(f"unknown grow_allocation {grow_allocation!r}")
        self.masked = masked
        self.growth_rule = growth_rule
        self.drop_rule = drop_rule if drop_rule is not None else MagnitudeDrop()
        self.schedule = schedule
        self.update_schedule = schedule.update_schedule()
        self.drop_schedule = schedule.drop_fraction_schedule()
        self.budget = budget if budget is not None else masked.budget
        self.rebalancer = rebalancer
        self.optimizer = optimizer
        self.allow_regrow = bool(allow_regrow)
        self.global_drop = bool(global_drop)
        self.grow_allocation = grow_allocation
        self.grad_ema_beta = float(grad_ema_beta)
        self.rng = resolve_rng(rng)

        self.coverage = CoverageTracker(masked)
        self.history: list[MaskUpdateRecord] = []
        self._needs_ema = getattr(growth_rule, "needs_grad_ema", False)
        self._grad_ema: dict[str, np.ndarray] = {}
        self._ema_scratch: np.ndarray | None = None
        if self._needs_ema:
            # Preallocated EMA buffers plus one shared scratch sized to the
            # largest layer: the per-step EMA update allocates nothing.
            for target in masked.targets:
                self._grad_ema[target.name] = np.zeros_like(target.param.data)
            self._ema_scratch = np.empty(
                max((t.size for t in masked.targets), default=0), dtype=np.float32
            )
        self._exclude_scratch = np.zeros(
            max((t.indexer.n_blocks for t in masked.targets), default=0), dtype=bool
        )
        self._needs_signs = getattr(self.drop_rule, "needs_sign_reference", False)
        self._sign_refs: dict[str, np.ndarray] = {}
        if self._needs_signs:
            for target in masked.targets:
                self._sign_refs[target.name] = np.sign(target.param.data).astype(np.float32)

    # ------------------------------------------------------------------
    # trainer hooks
    # ------------------------------------------------------------------
    def before_backward(self, step: int) -> None:
        """Tell the kernels whether this step's backward needs dense grads.

        Growth rules only consult dense weight gradients at mask-update
        steps (EMA-based rules consult them every step), so in between the
        block kernels may compute active-tile gradients only.  The flag is
        a pure function of ``step``, which keeps kill-and-resume runs
        bitwise identical to uninterrupted ones.
        """
        dense_needed = self._needs_ema or self.update_schedule.is_update_step(step)
        for target in self.masked.targets:
            target.dense_grads_required = dense_needed

    def on_backward(self, step: int) -> bool:
        """Algorithm 1's branch: mask update (skip SGD) or masked gradient step."""
        if self._needs_ema:
            self._update_grad_ema()
        if self.update_schedule.is_update_step(step):
            self.mask_update(step)
            return True
        if self.masked.per_step_apply_needed:
            # A bound sparse-aware optimizer never reads inactive-coordinate
            # gradients, so zeroing them is pure overhead in that mode.
            self.masked.mask_gradients()
        return False

    def after_step(self, step: int) -> None:
        """Re-apply masks after the optimizer step (keeps the invariant exact).

        Skipped when a sparse-aware optimizer is bound to the masked model
        (:meth:`MaskedModel.bind_optimizer`): it only ever touches active
        coordinates, so inactive weights are already exactly zero.
        """
        if self.masked.per_step_apply_needed:
            self.masked.apply_masks()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _update_grad_ema(self) -> None:
        beta = self.grad_ema_beta
        for target in self.masked.targets:
            grad = target.param.grad
            if grad is None:
                continue
            ema = self._grad_ema[target.name]
            scratch = self._ema_scratch[: grad.size].reshape(grad.shape)
            np.multiply(ema, beta, out=ema)
            np.multiply(grad, 1.0 - beta, out=scratch)
            np.add(ema, scratch, out=ema)

    def _context(self, target: SparseParam, step: int) -> LayerContext:
        return LayerContext(
            step=step,
            rng=self.rng,
            dense_grad=target.param.grad,
            counter=self.coverage.counter_for(target.name),
            grad_ema=self._grad_ema.get(target.name),
            sign_reference=self._sign_refs.get(target.name),
        )

    @staticmethod
    def _unit_size(target: SparseParam) -> int:
        """Elements per drop/grow unit: one ``B×B`` tile."""
        return target.block_size * target.block_size

    @staticmethod
    def _unit_counts(target: SparseParam) -> tuple[int, int]:
        """``(active, inactive)`` unit counts at the layer's granularity."""
        active = target.active_block_count
        return active, target.indexer.n_blocks - active

    def _drop_counts(self, fraction: float) -> list[int]:
        """Per-layer number of *units* (tiles) to move this round."""
        counts = []
        for target in self.masked.targets:
            active, inactive = self._unit_counts(target)
            k = int(fraction * active)
            # Cannot drop more than would leave the layer empty, nor grow
            # more than the number of inactive positions.
            k = min(k, max(active - 1, 0), inactive)
            counts.append(max(k, 0))
        return counts

    def _active_unit_drop_scores(self, target: SparseParam, step: int) -> np.ndarray:
        """Drop scores per active unit, aligned with ``active_blocks``.

        Element scores are gathered at the active indices (through the
        rule's subset scorer when it has one, so ranking cost scales with
        the number of active weights rather than layer size) and pooled to
        a tile mean: the same scale as element scores, so global rankings
        mix block sizes cleanly.  At ``B = 1`` the pooling is the identity.
        """
        ctx = self._context(target, step)
        active_idx = target.active_indices
        scores_at = getattr(self.drop_rule, "scores_at", None)
        if scores_at is not None:
            scores = np.asarray(scores_at(target, ctx, active_idx), dtype=np.float64)
        else:
            scores = np.asarray(self.drop_rule.scores(target, ctx), dtype=np.float64)
            scores = scores.reshape(-1)[active_idx]
        blocks = target.active_blocks
        pos = np.searchsorted(blocks, target.indexer.blocks_of_flat(active_idx))
        pooled = np.bincount(pos, weights=scores, minlength=blocks.size)
        return pooled / self._unit_size(target)

    def _global_drop_counts(self, fraction: float, step: int) -> list[int]:
        """DSR-style: rank all active units globally, drop the bottom set.

        Units are weighted by their element count, so the global budget
        (``fraction`` of active *weights*) stays exact when block and
        unstructured layers mix: units are taken in ascending-score order
        until the cumulative element weight reaches the budget.
        """
        all_scores = []
        owners = []
        weights = []
        total_active = 0
        for index, target in enumerate(self.masked.targets):
            unit_scores = self._active_unit_drop_scores(target, step)
            all_scores.append(unit_scores)
            owners.append(np.full(unit_scores.size, index))
            weights.append(np.full(unit_scores.size, self._unit_size(target)))
            total_active += target.active_count
        flat_scores = np.concatenate(all_scores)
        flat_owners = np.concatenate(owners)
        flat_weights = np.concatenate(weights)
        k_total = int(fraction * total_active)
        if k_total == 0:
            return [0] * len(self.masked.targets)
        order = np.argsort(flat_scores, kind="stable")
        cum = np.cumsum(flat_weights[order])
        n_chosen = int(np.searchsorted(cum, k_total))
        if n_chosen < order.size and cum[n_chosen] <= k_total:
            n_chosen += 1
        chosen = order[:n_chosen]
        counts = np.bincount(flat_owners[chosen], minlength=len(self.masked.targets))
        # Respect per-layer feasibility (in units).
        feasible = []
        for target, k in zip(self.masked.targets, counts):
            active, inactive = self._unit_counts(target)
            feasible.append(int(min(k, max(active - 1, 0), inactive)))
        return feasible

    def _allocate_growth(self, drop_counts: list[int]) -> list[int]:
        """How many *units* each layer grows back this round.

        Proportional allocation works in element space (the paper's budget
        is a weight count) and quantizes each block layer's share down to
        whole tiles; any quantization shortfall is made up by
        :meth:`_fill_deficit` reviving just-dropped weights.
        """
        if self.grow_allocation == "per_layer":
            return list(drop_counts)
        # Proportional (DSR): redistribute the global budget by active share.
        sizes = [self._unit_size(t) for t in self.masked.targets]
        total = int(sum(k * s for k, s in zip(drop_counts, sizes)))
        if total == 0:
            return [0] * len(drop_counts)
        actives = np.array(
            [t.active_count - k * s for t, k, s in zip(self.masked.targets, drop_counts, sizes)],
            dtype=np.float64,
        )
        if actives.sum() > 0:
            weights = actives / actives.sum()
        else:
            weights = np.ones_like(actives) / len(actives)
        raw = weights * total
        alloc = np.floor(raw).astype(int)
        remainder = total - alloc.sum()
        order = np.argsort(-(raw - alloc))
        for i in range(remainder):
            alloc[order[i % len(alloc)]] += 1
        # Clamp to available inactive slots per layer and quantize block
        # layers to whole tiles (floor — never exceed the element budget).
        units = []
        for index, (target, size) in enumerate(zip(self.masked.targets, sizes)):
            inactive_units = self._unit_counts(target)[1]
            capacity = (inactive_units + drop_counts[index]) * size
            elements = min(int(alloc[index]), capacity)
            units.append(elements // size)
        return units

    def mask_update(self, step: int) -> MaskUpdateRecord:
        """One drop-and-grow round.  Requires fresh (dense) gradients.

        Every layer drops and grows whole ``B×B`` tiles (unit counts from
        the allocators, tile-pooled scores for the rankings); at ``B = 1``
        a tile is one weight.

        Rebalancing phase: the round starts by letting the attached
        ``rebalancer`` (if any) move allocation between layers in
        ``self.budget``, then realizes whatever difference exists between
        the budget and the live masks — shrinking layers drop extra units,
        growing layers grow extra units — so per-layer grow counts may
        differ from drop counts while the *global* non-zero count lands
        exactly on ``budget.total``.  With an untouched budget and no
        rebalancer the round is identical to the classic symmetric
        drop-and-grow.
        """
        start = time.perf_counter()
        rebalanced = 0
        if self.rebalancer is not None:
            moves = self.rebalancer.rebalance(self.masked, self.budget, step) or {}
            rebalanced = int(sum(max(delta, 0) for delta in moves.values()))
        active_before = self.masked.total_active
        deltas = self.budget.deltas(self.masked)
        if any(deltas.values()):
            # target_density tracks the (re)allocations it is derived from.
            self.budget.bind(self.masked)
        fraction = self.drop_schedule(step)
        if self.global_drop:
            drop_counts = self._global_drop_counts(fraction, step)
        else:
            drop_counts = self._drop_counts(fraction)
        grow_counts = self._allocate_growth(drop_counts)

        # Fold the budget deltas into the per-layer unit counts: a layer
        # below its allocation grows extra units, a layer above it drops
        # extra units (never severing — at least one unit stays active).
        for index, target in enumerate(self.masked.targets):
            delta_units = deltas.get(target.name, 0) // self._unit_size(target)
            if delta_units > 0:
                grow_counts[index] += delta_units
            elif delta_units < 0:
                active_units = self._unit_counts(target)[0]
                headroom = max(active_units - 1 - drop_counts[index], 0)
                drop_counts[index] += min(-delta_units, headroom)
        for index, target in enumerate(self.masked.targets):
            inactive_units = self._unit_counts(target)[1]
            grow_counts[index] = min(grow_counts[index], inactive_units + drop_counts[index])

        total_dropped = 0
        total_grown = 0
        dropped_units: list[np.ndarray] = []

        # ---------------- drop phase ----------------
        for target, k_drop in zip(self.masked.targets, drop_counts):
            if k_drop <= 0:
                dropped_units.append(np.empty(0, dtype=np.int64))
                continue
            unit_scores = self._active_unit_drop_scores(target, step)
            order = np.argpartition(unit_scores, k_drop - 1)[:k_drop]
            drop_units = target.active_blocks[order]
            total_dropped += int(target.drop_blocks(drop_units).size)
            dropped_units.append(drop_units)

        # ---------------- grow phase ----------------
        for target, k_grow, drop_units in zip(self.masked.targets, grow_counts, dropped_units):
            if k_grow > 0:
                total_grown += self._grow_units(target, k_grow, drop_units, step)

        # Keep the global non-zero count exact: the round must land on
        # ``budget.total`` (== the pre-round active count plus any net
        # budget change), so if allocation clamping or a shortage of
        # inactive slots left a deficit, re-activate the best just-dropped
        # units anywhere.
        net = self.budget.total - active_before
        deficit = total_dropped + net - total_grown
        if deficit > 0:
            total_grown += self._fill_deficit(deficit, dropped_units)

        # ---------------- bookkeeping ----------------
        self.masked.apply_masks()
        self.coverage.update()
        record = MaskUpdateRecord(
            step=step,
            round_index=self.coverage.rounds,
            drop_fraction=fraction,
            total_dropped=total_dropped,
            total_grown=total_grown,
            exploration_rate=self.coverage.exploration_rate(),
            global_density=self.masked.global_density(),
            duration_ms=(time.perf_counter() - start) * 1e3,
            rebalanced=rebalanced,
        )
        self.history.append(record)
        return record

    def _grow_units(
        self, target: SparseParam, k_grow: int, drop_units: np.ndarray, step: int
    ) -> int:
        """Activate up to ``k_grow`` inactive units (tiles) in one layer.

        Growth scores are tile-pooled (mean), so every growth rule works
        unchanged at any block size; grown weights start at zero with fresh
        optimizer state.
        """
        candidates = target.inactive_blocks
        if not self.allow_regrow and drop_units.size:
            # O(candidates) membership test via a reused scratch table (a
            # sort-based set difference is ~50x slower at these sizes).
            exclude = self._exclude_scratch
            exclude[drop_units] = True
            candidates = candidates[~exclude[candidates]]
            exclude[drop_units] = False
        if candidates.size == 0:
            return 0
        k = min(k_grow, candidates.size)
        ctx = self._context(target, step)
        # Native dtype throughout: growth ranking is the dominant cost of a
        # round, and an f64 upcast of a full-size score array doubles its
        # memory traffic for no ranking benefit.
        scores = np.asarray(self.growth_rule.scores(target, ctx))
        pooled = target.indexer.pool(scores.reshape(target.shape2d))
        candidate_scores = pooled[candidates]
        if k < candidates.size:
            top = np.argpartition(candidate_scores, candidates.size - k)[candidates.size - k :]
        else:
            top = np.arange(candidates.size)
        grow_idx = target.grow_blocks(candidates[top])
        self._init_grown(target, grow_idx)
        return int(grow_idx.size)

    def _init_grown(self, target: SparseParam, grow_idx: np.ndarray) -> None:
        """Newly grown weights start from zero with fresh optimizer state."""
        flat_weights = target.param.data.reshape(-1)
        flat_weights[grow_idx] = 0.0
        if self.optimizer is not None:
            self.optimizer.reset_state(target.param, grow_idx)
        if self._needs_signs:
            # DeepR assigns a random sign to re-activated connections.
            signs = self._sign_refs[target.name].reshape(-1)
            signs[grow_idx] = self.rng.choice([-1.0, 1.0], size=grow_idx.size)

    def _fill_deficit(self, deficit: int, dropped_units: list[np.ndarray]) -> int:
        """Re-activate the highest-|w| just-dropped units to keep k fixed.

        Candidates are the units (tiles) each layer dropped this round and
        did not re-grow, scored by tile-mean magnitude and weighted by
        their ``B*B`` element count.  Units are revived greedily in
        descending magnitude while they fit the remaining element deficit,
        so a block layer can undershoot by at most ``B*B - 1`` elements
        when block sizes mix — the density error is transient (the next
        round re-balances from the mask).
        """
        magnitudes: list[np.ndarray] = []
        owners: list[np.ndarray] = []
        positions: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for index, (target, drop_units) in enumerate(zip(self.masked.targets, dropped_units)):
            if drop_units.size == 0:
                continue
            scratch = np.zeros(target.indexer.n_blocks, dtype=bool)
            scratch[drop_units] = True
            scratch[target.active_blocks] = False
            candidates = np.flatnonzero(scratch)
            if candidates.size == 0:
                continue
            tiles = target.param.data.reshape(-1)[target.indexer.expand_blocks(candidates)]
            magnitudes.append(np.abs(tiles).mean(axis=1))
            weights.append(np.full(candidates.size, self._unit_size(target), dtype=np.int64))
            owners.append(np.full(candidates.size, index))
            positions.append(candidates)
        if not magnitudes:
            return 0
        flat_mag = np.concatenate(magnitudes)
        flat_owner = np.concatenate(owners)
        flat_pos = np.concatenate(positions)
        flat_weight = np.concatenate(weights)
        order = np.argsort(-flat_mag, kind="stable")
        remaining = deficit
        take = np.zeros(flat_mag.size, dtype=bool)
        for i in order:
            w = int(flat_weight[i])
            if w <= remaining:
                take[i] = True
                remaining -= w
                if remaining == 0:
                    break
        revived = 0
        for index, target in enumerate(self.masked.targets):
            revive = flat_pos[take & (flat_owner == index)]
            if revive.size:
                revived += int(target.grow_blocks(revive).size)
        return revived

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the drop-and-grow state machine needs to resume exactly.

        On top of the base masks: coverage counters (Algorithm 1's ``N``),
        the mask-update history, the engine RNG's bit-generator state
        (random growth / tie-breaking), the dense-gradient EMA (SNFS) and
        the sign references (DeepR).  The update/drop schedules are pure
        functions of the global step, so they need no state.
        """
        state = super().state_dict()
        state["coverage"] = self.coverage.state_dict()
        state["history"] = [vars(record).copy() for record in self.history]
        state["rng"] = self.rng.bit_generator.state
        if self._needs_ema:
            state["grad_ema"] = {name: arr.copy() for name, arr in self._grad_ema.items()}
        if self._needs_signs:
            state["sign_refs"] = {name: arr.copy() for name, arr in self._sign_refs.items()}
        if self.rebalancer is not None:
            state["rebalancer"] = self.rebalancer.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (resume-exact)."""
        super().load_state_dict(state)
        self.coverage.load_state_dict(state["coverage"])
        self.history = [
            MaskUpdateRecord(**{k: v for k, v in record.items()})
            for record in state["history"]
        ]
        self.rng.bit_generator.state = state["rng"]
        for name, saved in state.get("grad_ema", {}).items():
            if name not in self._grad_ema:
                raise KeyError(f"gradient EMA for unknown layer {name!r}")
            np.copyto(self._grad_ema[name], saved.reshape(self._grad_ema[name].shape))
        for name, saved in state.get("sign_refs", {}).items():
            if name not in self._sign_refs:
                raise KeyError(f"sign reference for unknown layer {name!r}")
            np.copyto(self._sign_refs[name], saved.reshape(self._sign_refs[name].shape))
        if "rebalancer" in state and self.rebalancer is not None:
            self.rebalancer.load_state_dict(state["rebalancer"])
