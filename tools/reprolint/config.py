"""Repo-specific scoping shared by the rules.

Rules scope themselves by the module's *logical* path (the part after
``src/``), so the same rule works on a checkout, an installed tree, and
the self-check fixtures (which override their logical path with a
``# reprolint: treat-as=...`` directive).
"""

from __future__ import annotations

__all__ = [
    "DETERMINISTIC_PREFIXES",
    "ENTROPY_EXEMPT_PREFIXES",
    "FORK_LOADED_PREFIXES",
    "HOT_PATH_FILES",
    "LOCK_SCOPE_PREFIXES",
    "HTTP_CONTRACT_FILES",
    "BUDGET_AUTHORITY_FILE",
    "STATEFUL_ROOTS",
    "CHECKPOINT_EXEMPT_ATTRS",
    "is_deterministic_path",
    "is_fork_loaded",
    "is_lock_scope",
]

# RPL001 — packages whose results must be bitwise reproducible from a seed.
# Everything under repro/ except the explicitly entropy-exempt layers:
# serving (backoff jitter, fault injection) and the experiment orchestration
# layer (wall-clock timing fields in its reports).
DETERMINISTIC_PREFIXES = ("repro/",)
ENTROPY_EXEMPT_PREFIXES = ("repro/serve/", "repro/experiments/")

# RPL003 — modules imported by fork-based workers (repro/parallel).
# Effectively the whole library: workers fork with the parent's full import
# state.
FORK_LOADED_PREFIXES = ("repro/",)

# RPL004 — subsystems whose lock acquisitions form one ordering domain.
LOCK_SCOPE_PREFIXES = ("repro/serve/", "repro/parallel/", "repro/data/")

# RPL005 — files whose *nested* functions (autograd backward closures) are
# hot by construction, in addition to anything marked @repro.hot_path.
HOT_PATH_FILES = (
    "repro/sparse/kernels.py",
    "repro/autograd/conv.py",
)

# RPL006 — modules carrying a documented HTTP error-contract table.
HTTP_CONTRACT_FILES = ("repro/serve/http.py",)

# RPL007 — the one module allowed to write SparseParam.target_density;
# everywhere else density is derived from the DensityBudget allocations.
BUDGET_AUTHORITY_FILE = "repro/sparse/budget.py"

# RPL002 — class names that root the stateful hierarchies: any class with
# one of these in its (statically resolvable) ancestry must checkpoint the
# mutable attributes its __init__ creates.  ``nn.Module`` is deliberately
# absent: its state_dict discovers parameters dynamically, so attribute
# references never appear in the method body.
STATEFUL_ROOTS = frozenset(
    {
        "Optimizer",
        "LRScheduler",
        "SparsityController",
        "Callback",
        "TrainLoop",
        "GanDensityBalancer",
        "DQNAgent",
        "ReplayBuffer",
        "Env",
    }
)

# RPL002 — per-class exemptions for attributes that are derived caches or
# rebound by the surrounding harness rather than checkpointed state.  Keys
# are bare class names; values are attribute names.  Prefer an inline
# ``# reprolint: disable=RPL002`` with a justification for one-off cases;
# list an attribute here only when several classes share the pattern.
CHECKPOINT_EXEMPT_ATTRS: dict[str, frozenset[str]] = {}


def _matches(logical: str, prefixes: tuple[str, ...]) -> bool:
    return any(logical.startswith(prefix) for prefix in prefixes)


def is_deterministic_path(logical: str) -> bool:
    return _matches(logical, DETERMINISTIC_PREFIXES) and not _matches(
        logical, ENTROPY_EXEMPT_PREFIXES
    )


def is_fork_loaded(logical: str) -> bool:
    return _matches(logical, FORK_LOADED_PREFIXES)


def is_lock_scope(logical: str) -> bool:
    return _matches(logical, LOCK_SCOPE_PREFIXES)
