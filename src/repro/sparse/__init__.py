"""Sparse training: the paper's DST-EE algorithm and every compared baseline.

Quick start::

    from repro import nn, optim
    from repro.sparse import (
        DSTEEGrowth,
        DynamicSparseEngine,
        MaskedModel,
        TrainingSchedule,
    )

    masked = MaskedModel(model, sparsity=0.9, distribution="erk")
    opt = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(total_steps=total, delta_t=100),
        optimizer=opt,
    )

and pass ``engine`` to :class:`repro.train.Trainer`.
"""

from repro.sparse.blocks import BlockMask, MatrixBlockIndexer, expand_block_csr
from repro.sparse.budget import DensityBudget, assign_target_density
from repro.sparse.masked import MaskedModel, SparseParam, collect_sparsifiable
from repro.sparse.distribution import (
    erdos_renyi,
    erdos_renyi_kernel,
    layer_densities,
    uniform_density,
    validate_block_quantization,
)
from repro.sparse.counter import CoverageTracker
from repro.sparse.scoring import acquisition_score, exploitation_score, exploration_score
from repro.sparse.schedule import (
    ConstantSchedule,
    CosineDecaySchedule,
    LinearDecaySchedule,
    TrainingSchedule,
    UpdateSchedule,
    make_drop_schedule,
)
from repro.sparse.balance import DensityBalanceController, GradientMassRebalancer
from repro.sparse.growers import (
    DSTEEGrowth,
    GradientGrowth,
    LayerContext,
    MagnitudeDrop,
    MagnitudeGradientDrop,
    MomentumGrowth,
    RandomGrowth,
    SignFlipDrop,
)
from repro.sparse.engine import (
    DynamicSparseEngine,
    FixedMaskController,
    SparsityController,
)
from repro.sparse.static import global_topk_masks, grasp_masks, snip_masks, synflow_masks
from repro.sparse.gmp import GMPController, cubic_sparsity
from repro.sparse.str_prune import STRController
from repro.sparse.admm import ADMMPruner, project_topk
from repro.sparse.io import load_sparse_checkpoint, save_sparse_checkpoint
from repro.sparse.gap import GaPController
from repro.sparse.inference import (
    BlockSparseConv2d,
    BlockSparseLinear,
    SparseConv2d,
    SparseLinear,
    compile_sparse_model,
    sparse_storage_bytes,
)
from repro.sparse.kernels import (
    BsrMatmul,
    CsrMatmul,
    install_training_backends,
    remove_training_backends,
    select_backend,
)

__all__ = [
    "BlockMask",
    "MatrixBlockIndexer",
    "expand_block_csr",
    "MaskedModel",
    "SparseParam",
    "collect_sparsifiable",
    "DensityBudget",
    "assign_target_density",
    "uniform_density",
    "erdos_renyi",
    "erdos_renyi_kernel",
    "layer_densities",
    "validate_block_quantization",
    "CoverageTracker",
    "acquisition_score",
    "exploitation_score",
    "exploration_score",
    "ConstantSchedule",
    "CosineDecaySchedule",
    "LinearDecaySchedule",
    "TrainingSchedule",
    "UpdateSchedule",
    "make_drop_schedule",
    "DensityBalanceController",
    "GradientMassRebalancer",
    "LayerContext",
    "RandomGrowth",
    "GradientGrowth",
    "DSTEEGrowth",
    "MomentumGrowth",
    "MagnitudeDrop",
    "MagnitudeGradientDrop",
    "SignFlipDrop",
    "SparsityController",
    "FixedMaskController",
    "DynamicSparseEngine",
    "snip_masks",
    "grasp_masks",
    "synflow_masks",
    "global_topk_masks",
    "GMPController",
    "cubic_sparsity",
    "STRController",
    "ADMMPruner",
    "project_topk",
    "save_sparse_checkpoint",
    "load_sparse_checkpoint",
    "GaPController",
    "SparseLinear",
    "SparseConv2d",
    "BlockSparseLinear",
    "BlockSparseConv2d",
    "compile_sparse_model",
    "sparse_storage_bytes",
    "CsrMatmul",
    "BsrMatmul",
    "install_training_backends",
    "remove_training_backends",
    "select_backend",
]
