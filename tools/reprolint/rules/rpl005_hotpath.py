"""RPL005 — allocation discipline on per-step hot paths.

The sparse kernels win because their per-step structure work allocates
nothing: CSR values refresh by ``np.take(..., out=)`` into preallocated
buffers, the active-tile weight gradient writes into
``CsrMatmul.grad_w_buffer``.  One stray ``np.zeros`` in a kernel forward
erases a measurable slice of the 2.27×/1.5× bench wins — and nothing
catches it until the nightly bench gate, long after the commit.  Not every
allocation is waste: the conv layers allocate their step-sized arrays per
call, because a per-layer cache of them measured slower and held more
memory; each such line carries a suppression saying so.

Scope: functions decorated ``@repro.hot_path`` (the marker travels with
the function; nested closures inherit it) plus — in the files listed in
``HOT_PATH_FILES`` — every *nested* function, because those are the
autograd backward closures that run once per training step.

Flagged: ``np.zeros/empty/ones/full`` (+ ``_like`` forms), ``np.copy``,
``np.concatenate/stack/vstack/hstack``, ``np.ascontiguousarray``/
``asfortranarray``, ``np.array``, ``np.arange``.  Fix by reusing a
buffer (``CsrMatmul.grad_w_buffer`` / ``Optimizer.scratch_for``) or
hoisting the allocation to structure-rebuild time; a deliberate allocation
(aliasing hazard, cold branch, a cache that measured no gain) gets an
inline ``# reprolint: disable=RPL005`` with the reason.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.astutils import dotted_name
from tools.reprolint.config import HOT_PATH_FILES
from tools.reprolint.core import Finding, ModuleInfo, Rule

__all__ = ["HotPathAllocation"]

_ALLOCATORS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "full",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
        "copy",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "dstack",
        "ascontiguousarray",
        "asfortranarray",
        "array",
        "arange",
    }
)
_NP_ROOTS = ("np", "numpy")


def _is_hot_marker(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in fn.decorator_list:
        name = dotted_name(decorator)
        if name is not None and name.split(".")[-1] == "hot_path":
            return True
    return False


def _allocation(node: ast.Call) -> str | None:
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in _NP_ROOTS and parts[1] in _ALLOCATORS:
        return name
    return None


class HotPathAllocation(Rule):
    code = "RPL005"
    name = "hot-path-allocation"
    description = (
        "No numpy allocation calls inside @repro.hot_path functions or the "
        "per-step closures of the sparse/autograd kernels; reuse buffers."
    )

    def visit_module(self, module: ModuleInfo) -> Iterable[Finding]:
        auto_hot_nested = module.logical in HOT_PATH_FILES
        yield from self._scan(module.tree, module, hot=False, depth=0, auto=auto_hot_nested)

    def _scan(
        self, node: ast.AST, module: ModuleInfo, hot: bool, depth: int, auto: bool
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_hot = hot or _is_hot_marker(child) or (auto and depth >= 1)
                yield from self._scan(child, module, child_hot, depth + 1, auto)
                continue
            if isinstance(child, ast.Lambda):
                yield from self._scan(child, module, hot, depth + 1, auto)
                continue
            if hot and isinstance(child, ast.Call):
                allocation = _allocation(child)
                if allocation is not None:
                    yield self.finding(
                        module,
                        child,
                        f"'{allocation}(...)' allocates inside a hot path; reuse "
                        "a buffer (CsrMatmul.grad_w_buffer / Optimizer.scratch_for) "
                        "or hoist to structure-rebuild time",
                    )
            yield from self._scan(child, module, hot, depth, auto)
        return