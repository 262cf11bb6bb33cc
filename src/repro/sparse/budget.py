"""Global density budgets: the single source of truth for layer allocations.

A :class:`DensityBudget` holds, per sparsifiable layer, an integer
*allocation* of active weights out of an integer *capacity*, quantized to
the layer's drop/grow *unit* (``B*B`` elements for a block-structured
layer, 1 otherwise).  Every density number downstream — per-layer
``target_density``, the global density, the engine's rebalancing deltas —
is derived from these integers, so budget arithmetic is exact: transfers
and rescales conserve the global non-zero count to the element.

This module is also the **only** place allowed to write
``SparseParam.target_density`` (reprolint rule RPL007 enforces it
statically, and the attribute is a read-only property everywhere else).
Controllers that need a density written — the engine's rebalancing phase,
:meth:`MaskedModel.set_masks`'s refresh, checkpoint restore — go through
:meth:`DensityBudget.bind`, :meth:`DensityBudget.refresh_from_masks` or
:func:`assign_target_density`.

Budgets are mutable and cheap; the masked model owns one
(``masked.budget``) built from its initial masks, and controllers may hold
separate budgets (e.g. GMP's *final* budget while the masks are still
dense).  Mutating a budget never touches masks — the drop-and-grow engine
*realizes* the budget at its next mask update (see
``DynamicSparseEngine.mask_update``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

__all__ = ["DensityBudget", "assign_target_density"]


def assign_target_density(target, value: float) -> None:
    """Write a layer's ``target_density`` (the sanctioned RPL007 path)."""
    target._target_density = float(value)


class DensityBudget:
    """Integer per-layer allocations of a global non-zero budget.

    Parameters
    ----------
    layers:
        Iterable of ``(name, capacity, unit, allocation)`` tuples.
        ``capacity`` is the layer's element count, ``unit`` the drop/grow
        granularity in elements (``B*B`` for block layers), ``allocation``
        the number of active elements — a multiple of ``unit`` within
        ``[0, capacity]``.
    """

    def __init__(self, layers: Iterable[tuple[str, int, int, int]]):
        self._names: list[str] = []
        self._capacity: dict[str, int] = {}
        self._unit: dict[str, int] = {}
        self._alloc: dict[str, int] = {}
        for name, capacity, unit, allocation in layers:
            name = str(name)
            capacity, unit, allocation = int(capacity), int(unit), int(allocation)
            if name in self._capacity:
                raise ValueError(f"duplicate budget layer {name!r}")
            if capacity < 1:
                raise ValueError(f"{name!r}: capacity must be >= 1, got {capacity}")
            if unit < 1 or capacity % unit:
                raise ValueError(
                    f"{name!r}: unit {unit} must be >= 1 and divide capacity {capacity}"
                )
            self._names.append(name)
            self._capacity[name] = capacity
            self._unit[name] = unit
            self._alloc[name] = 0
            self.set_allocation(name, allocation)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_targets(cls, targets: Sequence) -> "DensityBudget":
        """Budget mirroring the *current* masks of ``SparseParam`` targets."""
        return cls((t.name, t.size, t.block_size * t.block_size, t.active_count) for t in targets)

    @classmethod
    def from_global(cls, targets: Sequence, density: float) -> "DensityBudget":
        """Budget for a *global* density, spread uniformly by capacity.

        Used by dense-to-sparse controllers (GMP/STR), whose pruning is
        global magnitude rather than per-layer: only :attr:`total` is
        consumed, so the per-layer split is nominal (largest-remainder
        proportional to capacity, quantized to each layer's unit, at least
        one unit per layer so no layer is nominally severed).
        """
        if not 0.0 < density <= 1.0:
            raise ValueError(f"global density must be in (0, 1], got {density}")
        budget = cls.from_targets(targets)
        budget.rescale(int(round(density * budget.capacity)))
        return budget

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def total(self) -> int:
        """Global budget: total allocated non-zero elements."""
        return sum(self._alloc.values())

    @property
    def capacity(self) -> int:
        """Total element capacity across all layers."""
        return sum(self._capacity.values())

    def allocation(self, name: str) -> int:
        return self._alloc[name]

    def capacity_of(self, name: str) -> int:
        return self._capacity[name]

    def unit(self, name: str) -> int:
        return self._unit[name]

    def density(self, name: str) -> float:
        return self._alloc[name] / self._capacity[name]

    def global_density(self) -> float:
        return self.total / self.capacity

    def allocations(self) -> dict[str, int]:
        """Per-layer allocations keyed by layer name (insertion order)."""
        return {name: self._alloc[name] for name in self._names}

    def copy(self) -> "DensityBudget":
        return DensityBudget(
            (name, self._capacity[name], self._unit[name], self._alloc[name])
            for name in self._names
        )

    def __contains__(self, name: str) -> bool:
        return name in self._capacity

    def __repr__(self) -> str:
        return (
            f"DensityBudget(total={self.total}, capacity={self.capacity}, "
            f"layers={len(self._names)})"
        )

    # ------------------------------------------------------------------
    # mutation (all element counts stay unit-quantized and in range)
    # ------------------------------------------------------------------
    def set_allocation(self, name: str, allocation: int) -> None:
        """Set one layer's allocation; loud ``ValueError`` on any violation."""
        if name not in self._capacity:
            raise KeyError(f"unknown budget layer {name!r}")
        allocation = int(allocation)
        capacity, unit = self._capacity[name], self._unit[name]
        if not 0 <= allocation <= capacity:
            raise ValueError(
                f"{name!r}: allocation {allocation} outside [0, {capacity}]"
            )
        if allocation % unit:
            raise ValueError(
                f"{name!r}: allocation {allocation} is not a multiple of the "
                f"layer's {unit}-element unit"
            )
        self._alloc[name] = allocation

    def transfer(self, src: str, dst: str, n_elements: int) -> int:
        """Move up to ``n_elements`` from ``src`` to ``dst``; returns the move.

        The amount is quantized down to the least common multiple of both
        layers' units (so each side stays unit-aligned), and clamped so the
        source keeps at least one unit and the destination stays within
        capacity.  The global total is conserved exactly.
        """
        if n_elements < 0:
            return -self.transfer(dst, src, -n_elements)
        quantum = math.lcm(self._unit[src], self._unit[dst])
        available = self._alloc[src] - self._unit[src]  # keep >= 1 unit
        headroom = self._capacity[dst] - self._alloc[dst]
        moved = min(int(n_elements), max(available, 0), headroom)
        moved = (moved // quantum) * quantum
        if moved > 0:
            self.set_allocation(src, self._alloc[src] - moved)
            self.set_allocation(dst, self._alloc[dst] + moved)
        return moved

    def rescale(self, new_total: int) -> int:
        """Re-spread allocations proportionally to hit ``new_total`` exactly.

        Largest-remainder apportionment in unit space, keeping every layer
        at >= 1 unit and <= capacity.  Raises ``ValueError`` when
        ``new_total`` is unreachable (below one unit per layer, above
        capacity, or not representable by the layers' units).  Returns the
        achieved total (== ``new_total``).
        """
        new_total = int(new_total)
        floor_total = sum(self._unit[n] for n in self._names)
        if not floor_total <= new_total <= self.capacity:
            raise ValueError(
                f"new_total {new_total} outside feasible [{floor_total}, "
                f"{self.capacity}]"
            )
        old_total = max(self.total, 1)
        raw = {n: self._alloc[n] / old_total * new_total for n in self._names}
        alloc = {}
        for n in self._names:
            unit, cap = self._unit[n], self._capacity[n]
            quantized = (int(raw[n]) // unit) * unit
            alloc[n] = min(max(quantized, unit), cap)
        remainder = new_total - sum(alloc.values())
        # Distribute (or claw back) the remainder one unit at a time,
        # preferring the largest fractional residue (classic apportionment).
        for _ in range(self.capacity):
            if remainder == 0:
                break
            best, best_score = None, None
            for n in self._names:
                unit = self._unit[n]
                if remainder > 0:
                    feasible = unit <= remainder and alloc[n] + unit <= self._capacity[n]
                else:
                    feasible = unit <= -remainder and alloc[n] - unit >= unit
                if not feasible:
                    continue
                score = raw[n] - alloc[n] if remainder > 0 else alloc[n] - raw[n]
                if best_score is None or score > best_score:
                    best, best_score = n, score
            if best is None:
                raise ValueError(
                    f"cannot reach total {new_total} with the layers' unit sizes"
                )
            step = self._unit[best] if remainder > 0 else -self._unit[best]
            alloc[best] += step
            remainder -= step
        for n in self._names:
            self.set_allocation(n, alloc[n])
        return self.total

    # ------------------------------------------------------------------
    # coupling to a MaskedModel
    # ------------------------------------------------------------------
    def bind(self, masked) -> None:
        """Write every layer's ``target_density`` from its allocation."""
        for target in masked.targets:
            if target.name not in self._capacity:
                raise KeyError(f"masked layer {target.name!r} not in budget")
            assign_target_density(target, self.density(target.name))

    def refresh_from_masks(self, masked, names: Iterable[str] | None = None) -> None:
        """Adopt the masks' actual active counts as the allocations.

        The post-hoc direction (mask -> budget), used when masks are
        replaced wholesale (static pruners, ``set_masks``).  Also refreshes
        the affected layers' ``target_density``.
        """
        wanted = None if names is None else set(names)
        for target in masked.targets:
            if wanted is not None and target.name not in wanted:
                continue
            self.set_allocation(target.name, target.active_count)
            assign_target_density(target, self.density(target.name))

    def deltas(self, masked) -> dict[str, int]:
        """Per-layer ``allocation - active`` element counts (what the engine
        must realize: positive = grow, negative = shrink)."""
        return {
            t.name: self._alloc[t.name] - t.active_count
            for t in masked.targets
            if t.name in self._capacity
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "names": list(self._names),
            "capacity": [self._capacity[n] for n in self._names],
            "unit": [self._unit[n] for n in self._names],
            "allocation": [self._alloc[n] for n in self._names],
        }

    def load_state_dict(self, state: Mapping) -> None:
        names = [str(n) for n in state["names"]]
        if names != self._names:
            raise ValueError(
                f"budget layers {names} do not match this budget's {self._names}"
            )
        for n, capacity, unit in zip(names, state["capacity"], state["unit"]):
            if int(capacity) != self._capacity[n] or int(unit) != self._unit[n]:
                raise ValueError(f"budget geometry mismatch for layer {n!r}")
        for n, allocation in zip(names, state["allocation"]):
            self.set_allocation(n, int(allocation))
