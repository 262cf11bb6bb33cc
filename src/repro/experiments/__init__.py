"""Experiment harness: method registry, cell runners, table formatting."""

from repro.experiments.registry import (
    ALL_METHODS,
    DENSE_TO_SPARSE_METHODS,
    DYNAMIC_METHODS,
    LM_METHODS,
    RL_METHODS,
    STATIC_METHODS,
    MethodSetup,
    SweepCell,
    build_method,
    enumerate_cells,
    method_family,
)
from repro.experiments.runner import (
    RunResult,
    SweepReport,
    run_image_classification,
    run_multi_seed,
    run_sweep,
)
from repro.experiments.rl import RLRunResult, run_rl
from repro.experiments.lm import LMRunResult, evaluate_lm, run_lm
from repro.experiments.gnn import (
    GNNResult,
    evaluate_link_prediction,
    run_admm_prune_from_dense,
    run_gnn_dense,
    run_gnn_dst_ee,
    train_link_predictor,
)
from repro.experiments.tables import format_float, format_mean_std, format_table
from repro.experiments.configs import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    Scale,
    fig3_settings,
    get_scale,
    gnn_settings,
    table1_settings,
    table2_settings,
)

__all__ = [
    "ALL_METHODS",
    "DYNAMIC_METHODS",
    "STATIC_METHODS",
    "DENSE_TO_SPARSE_METHODS",
    "MethodSetup",
    "build_method",
    "method_family",
    "LM_METHODS",
    "RL_METHODS",
    "LMRunResult",
    "RLRunResult",
    "RunResult",
    "SweepCell",
    "SweepReport",
    "enumerate_cells",
    "evaluate_lm",
    "run_image_classification",
    "run_lm",
    "run_multi_seed",
    "run_rl",
    "run_sweep",
    "GNNResult",
    "evaluate_link_prediction",
    "train_link_predictor",
    "run_gnn_dense",
    "run_gnn_dst_ee",
    "run_admm_prune_from_dense",
    "format_table",
    "format_float",
    "format_mean_std",
    "Scale",
    "get_scale",
    "table1_settings",
    "table2_settings",
    "gnn_settings",
    "fig3_settings",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
]
