"""RPL003 — fork-safety of modules loaded by forked workers.

The parallel engine (experiment sharding and the gradient workers)
``fork()``s with the parent's full import state.  Two shapes of code break
that:

* **Import-time OS resources** — a ``threading.Thread``, lock/condition/
  semaphore, open file handle or socket created at module scope is
  duplicated into every forked child in an undefined state (a lock held
  by another thread at fork time stays locked *forever* in the child).
  Create them lazily inside the owning object instead.  ``threading.local``
  is allowed: it holds no OS handle and re-initializes per thread.
* **Unpicklable multiprocessing entry points** — lambdas and nested
  functions passed as ``Process(target=...)`` / pool ``apply``/``map``/
  ``submit`` callables depend on spawn-vs-fork start methods and break the
  moment a pool is configured for spawn; module-level functions only.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.astutils import dotted_name, walk_scope
from tools.reprolint.config import is_fork_loaded
from tools.reprolint.core import Finding, ModuleInfo, Rule

__all__ = ["ForkSafety"]

_THREADING_RESOURCES = frozenset(
    {
        "Thread",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Timer",
    }
)
_RESOURCE_MODULES = ("threading", "multiprocessing", "mp")
_OPENERS = frozenset({"open", "socket.socket", "NamedTemporaryFile", "TemporaryFile"})

_POOL_ENTRY_ATTRS = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "submit",
    }
)


def _resource_call(node: ast.Call) -> str | None:
    """Name of the OS resource this call creates at module scope, if any."""
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if name in _OPENERS or parts[-1] in ("open",):
        return name
    if len(parts) >= 2 and parts[0] in _RESOURCE_MODULES and parts[-1] in _THREADING_RESOURCES:
        return name
    return None


def _entry_point_callable(node: ast.Call) -> ast.AST | None:
    """The callable argument handed to a multiprocessing entry point."""
    name = dotted_name(node.func)
    if name is None:
        return None
    tail = name.split(".")[-1]
    if tail == "Process":
        for keyword in node.keywords:
            if keyword.arg == "target":
                return keyword.value
        if len(node.args) >= 2:
            return node.args[1]
        return None
    if tail in _POOL_ENTRY_ATTRS and isinstance(node.func, ast.Attribute) and node.args:
        return node.args[0]
    return None


class ForkSafety(Rule):
    code = "RPL003"
    name = "fork-safety"
    description = (
        "No threads/locks/file handles created at import time in fork-loaded "
        "modules; no lambdas or closures as multiprocessing entry points."
    )

    def visit_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not is_fork_loaded(module.logical):
            return
        yield from self._check_import_time(module, module.tree)
        yield from self._check_entry_points(module)

    # ------------------------------------------------------------------
    # import-time resources (module and class bodies, not function bodies)
    # ------------------------------------------------------------------
    def _check_import_time(self, module: ModuleInfo, root: ast.AST) -> Iterable[Finding]:
        stack: list[ast.AST] = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                resource = _resource_call(node)
                if resource is not None:
                    yield self.finding(
                        module,
                        node,
                        f"'{resource}(...)' runs at import time in a fork-loaded "
                        "module; forked workers inherit the handle in an "
                        "undefined state — create it lazily in the owning object",
                    )
            stack.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # lambdas / closures into multiprocessing entry points
    # ------------------------------------------------------------------
    def _check_entry_points(self, module: ModuleInfo) -> Iterable[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_functions = {
                child.name
                for child in walk_scope(fn)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in walk_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                target = _entry_point_callable(node)
                if target is None:
                    continue
                if isinstance(target, ast.Lambda):
                    yield self.finding(
                        module,
                        target,
                        "lambda passed as a multiprocessing entry point; lambdas "
                        "do not survive spawn start methods — use a module-level "
                        "function",
                    )
                elif isinstance(target, ast.Name) and target.id in local_functions:
                    yield self.finding(
                        module,
                        node,
                        f"nested function '{target.id}' passed as a multiprocessing "
                        "entry point; closures do not survive spawn start methods "
                        "— use a module-level function",
                    )
