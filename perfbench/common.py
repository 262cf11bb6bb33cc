"""Shared pieces of the benchmark: statistics, the result record, the fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import sys
from dataclasses import dataclass, field

import numpy as np

# Environment variables that size the BLAS/OpenMP thread pools; run.py sets
# them to 1 before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Result:
    """What one workload run reports; ``metrics`` maps name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (name, start, end, parent index)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    """The machine and library facts a result depends on."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": sys.platform,
    }
