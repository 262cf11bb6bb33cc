"""Parallel execution engine: experiment sharding and gradient workers.

Two independent levels of parallelism (see docs/performance.md):

* :func:`run_sharded` / :func:`resolve_nproc` — fan independent experiment
  cells (seeds, sweep cells) out across ``REPRO_NPROC`` forked processes
  with crash isolation and deterministic seeding (:func:`derive_seeds`).
* :class:`GradientWorkerPool` — split each mini-batch across persistent
  worker processes sharing parameters through ``multiprocessing.shared_memory``,
  all-reducing gradients into the parent before the optimizer step
  (``Trainer(n_workers=...)``).
"""

from repro.parallel.pool import (
    NPROC_ENV,
    ShardResult,
    derive_seeds,
    fork_available,
    resolve_nproc,
    run_sharded,
)
from repro.parallel.shm import ParamLayout, SharedArray
from repro.parallel.workers import GradientWorkerPool

__all__ = [
    "NPROC_ENV",
    "ShardResult",
    "derive_seeds",
    "fork_available",
    "resolve_nproc",
    "run_sharded",
    "ParamLayout",
    "SharedArray",
    "GradientWorkerPool",
]
