"""Method registry: build any of the paper's compared methods by name.

Families
--------
* ``dense`` — no sparsification (the tables' reference rows).
* static pruning at initialization — ``snip``, ``grasp``, ``synflow``,
  ``static_random`` (random ERK mask, an ablation point).
* dense-to-sparse — ``str`` (proximal variant), ``gmp``, ``granet``.
* dynamic sparse training — ``set``, ``rigl``, ``rigl_itop``, ``deepr``,
  ``snfs``, ``dsr``, ``mest`` and the paper's ``dst_ee``.
* prune-from-dense — ``admm``, the GNN tables' baseline; it trains in
  three phases of its own, so only ``run_gnn`` builds it.

:func:`build_method` returns a :class:`MethodSetup` holding the controller
(plus the masked model when applicable) ready for the Trainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.module import Module
from repro.optim.sgd import Optimizer
from repro.sparse import (
    DSTEEGrowth,
    DensityBalanceController,
    DensityBudget,
    DynamicSparseEngine,
    FixedMaskController,
    GMPController,
    GradientGrowth,
    MagnitudeDrop,
    MagnitudeGradientDrop,
    MaskedModel,
    MomentumGrowth,
    RandomGrowth,
    STRController,
    SignFlipDrop,
    SparsityController,
    TrainingSchedule,
    grasp_masks,
    snip_masks,
    synflow_masks,
)

__all__ = [
    "MethodSetup",
    "SweepCell",
    "build_method",
    "enumerate_cells",
    "DYNAMIC_METHODS",
    "STATIC_METHODS",
    "DENSE_TO_SPARSE_METHODS",
    "ALL_METHODS",
    "RL_METHODS",
    "GAN_METHODS",
    "LM_METHODS",
    "GNN_METHODS",
    "method_family",
]


DYNAMIC_METHODS = (
    "set",
    "rigl",
    "rigl_itop",
    "deepr",
    "snfs",
    "dsr",
    "mest",
    "dst_ee",
    "balanced",
)
STATIC_METHODS = ("snip", "grasp", "synflow", "static_random")
DENSE_TO_SPARSE_METHODS = ("str", "gmp", "granet", "gap")
ALL_METHODS = ("dense",) + STATIC_METHODS + DENSE_TO_SPARSE_METHODS + DYNAMIC_METHODS

# Methods the RL workload supports: the dense reference plus every
# drop-and-grow controller.  Static pruners need saliency batches and the
# dense-to-sparse schedules are epoch-keyed — neither maps onto the
# step-driven DQN loop without a separate design.
RL_METHODS = ("dense",) + DYNAMIC_METHODS

# Methods the sparse-GAN stressor supports: both networks run a
# drop-and-grow controller (or none), and the G↔D balancer moves density
# between their budgets — so only budget-driven dynamic methods qualify.
GAN_METHODS = ("dense",) + DYNAMIC_METHODS

# Methods the char-LM workload supports: the dense reference plus every
# budget-driven drop-and-grow controller, applied across all transformer
# weight matrices (attention/MLP Linears and both embedding tables).
LM_METHODS = ("dense",) + DYNAMIC_METHODS

# Methods the GNN link-prediction workload supports: the drop-and-grow
# controllers on the predictor's two FC layers, plus the paper's
# three-phase ADMM prune-from-dense baseline (Tables III/IV), which
# run_gnn builds itself.
GNN_METHODS = ("dense",) + DYNAMIC_METHODS + ("admm",)


def method_family(name: str) -> str:
    """Return the family of a method name (raises on unknown names)."""
    if name == "dense":
        return "dense"
    if name in STATIC_METHODS:
        return "static"
    if name in DENSE_TO_SPARSE_METHODS:
        return "dense_to_sparse"
    if name in DYNAMIC_METHODS:
        return "dynamic"
    if name == "admm":
        return "prune_from_dense"
    raise ValueError(f"unknown method {name!r}; known: {ALL_METHODS + ('admm',)}")


@dataclass
class MethodSetup:
    """A constructed method: controller + masked model (None for dense)."""

    name: str
    family: str
    controller: SparsityController | None
    masked: MaskedModel | None
    finalize: Callable[[], None] | None = None  # e.g. STR pattern freeze


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of a sweep grid: a single training run.

    This is the granularity at which the parallel execution engine shards
    work (see :func:`repro.experiments.runner.run_sweep`): cells never
    share state, so any subset can run in any process in any order.  The
    non-image workloads fill the slots by convention: RL cells are
    ``model="dqn"`` with the environment as ``dataset``, GAN cells
    ``model="gan"`` with the mixture, LM cells ``model="char_gpt"`` with the
    corpus, GNN cells ``model="gnn"`` with the graph.
    """

    method: str
    model: str
    dataset: str
    sparsity: float
    seed: int


def enumerate_cells(
    methods: Sequence[str],
    models: Sequence[str],
    datasets: Sequence[str],
    sparsities: Sequence[float],
    seeds: Sequence[int] = (0, 1, 2),
    root_seed: int | None = None,
) -> list[SweepCell]:
    """Deterministic cell list for a (method × model × dataset × sparsity × seed) grid.

    The one grid builder for every workload: an RL grid passes
    ``models=["dqn"]`` and environment names as ``datasets`` (GAN:
    ``["gan"]`` and mixtures; LM: ``["char_gpt"]`` and corpora).  Method
    names are validated up front (one bad name fails fast instead of as
    ``len(grid)`` broken cells).  Whether a workload can run a method and
    whether a model or dataset exists is checked once, by the run function,
    so in a sweep a cell it rejects becomes a failed
    :class:`~repro.experiments.runner.CellOutcome` naming the problem.

    With ``root_seed`` set, the explicit ``seeds`` are replaced by per-cell
    seeds derived via ``SeedSequence.spawn``
    (:func:`repro.parallel.derive_seeds`): cell ``i`` always gets the same
    seed regardless of worker count or sweep order, and no two cells share
    a stream.  With the default ``root_seed=None``
    every cell group reuses the explicit seed list — the paper's
    "(mean ± std) over seeds {0, 1, 2}" protocol.
    """
    for name in methods:
        method_family(name)  # raises on unknown methods
    grid = [
        (method, model, dataset, sparsity, seed)
        for method in methods
        for model in models
        for dataset in datasets
        for sparsity in sparsities
        for seed in seeds
    ]
    if root_seed is not None:
        from repro.parallel import derive_seeds

        derived = derive_seeds(root_seed, len(grid))
        grid = [
            (method, model, dataset, sparsity, derived[index])
            for index, (method, model, dataset, sparsity, _) in enumerate(grid)
        ]
    return [SweepCell(*entry) for entry in grid]


def build_method(
    name: str,
    model: Module,
    optimizer: Optimizer,
    sparsity: float,
    total_steps: int,
    *,
    distribution: str = "erk",
    delta_t: int = 100,
    drop_fraction: float = 0.3,
    stop_fraction: float = 0.75,
    c: float = 1e-3,
    epsilon: float = 1.0,
    mest_lambda: float = 1.0,
    loss_fn: Callable | None = None,
    saliency_batches: Iterable | None = None,
    input_shape: tuple[int, ...] | None = None,
    include_modules: Sequence[Module] | None = None,
    rng: np.random.Generator | None = None,
    block_size: int | None = None,
) -> MethodSetup:
    """Construct the named sparsification method around ``model``.

    ``saliency_batches`` (an iterable of ``(inputs, targets)``) is required
    for SNIP/GraSP; ``input_shape`` for SynFlow.  ``include_modules``
    restricts sparsification (the GNN experiments pass the two FC layers).

    ``block_size`` > 1 requests block-structured masks (drop-and-grow on
    ``block_size × block_size`` tiles; see :mod:`repro.sparse.blocks`).  It
    applies to the distribution-sampled mask families — random-static and
    the dynamic methods — and is rejected for saliency-derived or
    dense-to-sparse methods, whose unstructured scores have no block form.
    """
    family = method_family(name)
    rng = rng if rng is not None else np.random.default_rng()

    if family == "dense":
        return MethodSetup(name=name, family=family, controller=None, masked=None)
    if family == "prune_from_dense":
        raise ValueError(f"method {name!r} trains in phases of its own; only run_gnn runs it")

    from repro.sparse.masked import resolve_block_size

    resolved_block = resolve_block_size(block_size)
    if resolved_block > 1 and not (family == "dynamic" or name == "static_random"):
        raise ValueError(
            f"block_size={resolved_block} is not supported for method "
            f"{name!r} (family {family!r}); block-structured masks apply to "
            "the dynamic methods and static_random"
        )

    if family == "static":
        if name == "static_random":
            masked = MaskedModel(
                model,
                sparsity,
                distribution=distribution,
                rng=rng,
                include_modules=include_modules,
                block_size=resolved_block,
            )
        else:
            masks = _static_masks(
                name,
                model,
                sparsity,
                loss_fn,
                saliency_batches,
                input_shape,
                include_modules,
            )
            masked = MaskedModel(
                model,
                sparsity,
                distribution=distribution,
                rng=rng,
                include_modules=include_modules,
                masks=masks,
            )
        return MethodSetup(
            name=name,
            family=family,
            controller=FixedMaskController(masked),
            masked=masked,
        )

    if family == "dense_to_sparse":
        if name == "gap":
            # GaP cycles partitions dense; masks start at the target level
            # and the construction-time budget is the sparse-phase target.
            from repro.sparse.gap import GaPController

            masked = MaskedModel(
                model,
                sparsity,
                distribution=distribution,
                rng=rng,
                include_modules=include_modules,
            )
            controller = GaPController(
                masked,
                schedule=TrainingSchedule(total_steps=total_steps, delta_t=delta_t),
                budget=masked.budget,
            )
            return MethodSetup(name=name, family=family, controller=controller, masked=masked)
        masked = MaskedModel(
            model,
            0.0,
            distribution="uniform",
            rng=rng,
            include_modules=include_modules,
        )
        # Dense-to-sparse controllers take the *final* budget: training
        # starts dense (masked.budget is all-capacity) and prunes down to it.
        final_budget = DensityBudget.from_global(masked.targets, 1.0 - sparsity)
        if name == "str":
            controller = STRController(
                masked,
                schedule=TrainingSchedule(
                    total_steps=total_steps,
                    delta_t=delta_t,
                    t_start_fraction=0.05,
                    t_end_fraction=0.75,
                ),
                budget=final_budget,
            )
            return MethodSetup(
                name=name,
                family=family,
                controller=controller,
                masked=masked,
                finalize=controller.finalize,
            )
        regrow = 0.5 if name == "granet" else 0.0
        controller = GMPController(
            masked,
            schedule=TrainingSchedule(total_steps=total_steps, delta_t=delta_t),
            budget=final_budget,
            regrow_fraction=regrow,
            rng=rng,
        )
        return MethodSetup(name=name, family=family, controller=controller, masked=masked)

    # ------------------------------------------------------------------ dynamic
    masked = MaskedModel(
        model,
        sparsity,
        distribution=distribution,
        rng=rng,
        include_modules=include_modules,
        block_size=resolved_block,
    )
    growth, drop, extra = _dynamic_rules(name, c, epsilon, mest_lambda)
    schedule = TrainingSchedule(
        total_steps=total_steps,
        delta_t=delta_t,
        drop_fraction=drop_fraction,
        drop_schedule=extra.get("drop_schedule", "cosine"),
        stop_fraction=extra.get("stop_fraction", stop_fraction),
    )
    if name == "balanced":
        engine = DensityBalanceController(
            masked,
            schedule=schedule,
            budget=masked.budget,
            growth_rule=growth,
            drop_rule=drop,
            optimizer=optimizer,
            rng=rng,
        )
        return MethodSetup(name=name, family=family, controller=engine, masked=masked)
    engine = DynamicSparseEngine(
        masked,
        growth,
        drop_rule=drop,
        optimizer=optimizer,
        rng=rng,
        schedule=schedule,
        budget=masked.budget,
        global_drop=extra.get("global_drop", False),
        grow_allocation=extra.get("grow_allocation", "per_layer"),
    )
    return MethodSetup(name=name, family=family, controller=engine, masked=masked)


def _dynamic_rules(name: str, c: float, epsilon: float, mest_lambda: float):
    """Growth rule, drop rule and engine overrides per dynamic method."""
    if name == "set":
        return RandomGrowth(), MagnitudeDrop(), {"drop_schedule": "constant"}
    if name == "rigl":
        return GradientGrowth(), MagnitudeDrop(), {}
    if name == "rigl_itop":
        # ITOP setting: keep exploring for the whole run with an un-annealed
        # drop fraction, maximizing coverage.
        return GradientGrowth(), MagnitudeDrop(), {
            "drop_schedule": "constant",
            "stop_fraction": 1.0,
        }
    if name == "dst_ee":
        return DSTEEGrowth(c=c, epsilon=epsilon), MagnitudeDrop(), {}
    if name == "snfs":
        return MomentumGrowth(), MagnitudeDrop(), {}
    if name == "deepr":
        return RandomGrowth(), SignFlipDrop(), {"drop_schedule": "constant"}
    if name == "dsr":
        return RandomGrowth(), MagnitudeDrop(), {
            "global_drop": True,
            "grow_allocation": "proportional",
        }
    if name == "mest":
        return RandomGrowth(), MagnitudeGradientDrop(mest_lambda), {"drop_schedule": "linear"}
    if name == "balanced":
        # Parger-style cross-layer rebalancing on RigL's rules; the
        # rebalancer itself is attached by build_method.
        return GradientGrowth(), MagnitudeDrop(), {}
    raise ValueError(f"unknown dynamic method {name!r}")


def _static_masks(
    name: str,
    model: Module,
    sparsity: float,
    loss_fn: Callable | None,
    saliency_batches: Iterable | None,
    input_shape: tuple[int, ...] | None,
    include_modules: Sequence[Module] | None,
) -> dict[str, np.ndarray]:
    if name == "synflow":
        if input_shape is None:
            raise ValueError("synflow requires input_shape")
        return synflow_masks(model, input_shape, sparsity, include_modules)
    if loss_fn is None or saliency_batches is None:
        raise ValueError(f"{name} requires loss_fn and saliency_batches")
    batches = list(saliency_batches)
    if name == "snip":
        return snip_masks(model, loss_fn, batches, sparsity, include_modules)
    if name == "grasp":
        return grasp_masks(model, loss_fn, batches, sparsity, include_modules)
    raise ValueError(f"unknown static method {name!r}")
