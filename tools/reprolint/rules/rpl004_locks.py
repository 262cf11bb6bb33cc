"""RPL004 — lock-ordering across the serving and parallel layers.

The serving fleet holds multiple locks (routing lock, batching queue lock,
admission lock); the parallel engine adds its own.  A
deadlock needs only two call paths acquiring the same pair in opposite
orders, and nothing at runtime checks for that until the fleet hangs under
load.  This rule builds the static acquisition graph from ``with <lock>``
nesting (an edge A→B for every ``with B`` textually inside ``with A``,
including multi-item ``with A, B``) and reports:

* **self-edges** — re-acquiring a lock already held (instant deadlock for
  non-reentrant ``threading.Lock``);
* **cycles** — any strongly-connected component of two or more locks,
  which includes every inconsistent A→B / B→A pair.

Lock identity is static: ``ClassName.attr`` for ``with self._lock`` inside
a class, ``module:name`` otherwise.  An expression counts as a lock when
its final name component contains ``lock`` or ``mutex`` — name locks
accordingly (the repo already does).  Condition variables built *on* a
lock share its identity only if named alike; keep lock-wrapping conditions
named after the lock they wrap.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from tools.reprolint.astutils import dotted_name
from tools.reprolint.config import is_lock_scope
from tools.reprolint.core import Finding, ModuleInfo, Rule

__all__ = ["LockOrdering"]


@dataclass(frozen=True)
class EdgeSite:
    module: ModuleInfo
    node: ast.AST


def _lock_name(expr: ast.AST) -> str | None:
    name = dotted_name(expr)
    if name is None:
        return None
    tail = name.split(".")[-1].lower()
    if "lock" in tail or "mutex" in tail:
        return name
    return None


class LockOrdering(Rule):
    code = "RPL004"
    name = "lock-ordering"
    description = (
        "The static `with <lock>` acquisition graph over serve/ and parallel/ "
        "must be acyclic (and never re-acquire a held lock)."
    )

    def __init__(self) -> None:
        # edge (held, acquired) -> first site observed
        self._edges: dict[tuple[str, str], EdgeSite] = {}
        self._self_edges: list[tuple[str, EdgeSite]] = []

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def visit_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not is_lock_scope(module.logical):
            return ()
        self._walk(module, module.tree, enclosing_class=None, held=())
        return ()

    def _identify(self, expr: ast.AST, enclosing_class: str | None, module: ModuleInfo) -> str | None:
        name = _lock_name(expr)
        if name is None:
            return None
        if name.startswith("self.") and enclosing_class is not None:
            return f"{enclosing_class}.{name[len('self.'):]}"
        if "." not in name:
            return f"{module.logical}:{name}"
        return name

    def _walk(
        self,
        module: ModuleInfo,
        node: ast.AST,
        enclosing_class: str | None,
        held: tuple[str, ...],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(module, child, enclosing_class, held)

    def _visit(
        self,
        module: ModuleInfo,
        child: ast.AST,
        enclosing_class: str | None,
        held: tuple[str, ...],
    ) -> None:
        if isinstance(child, ast.ClassDef):
            self._walk(module, child, child.name, held)
            return
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A new call frame: nesting across calls is not tracked
            # statically, so the held set resets.
            self._walk(module, child, enclosing_class, ())
            return
        if isinstance(child, (ast.With, ast.AsyncWith)):
            acquired = list(held)
            for item in child.items:
                lock = self._identify(item.context_expr, enclosing_class, module)
                if lock is None:
                    continue
                site = EdgeSite(module, item.context_expr)
                for holder in acquired:
                    if holder == lock:
                        self._self_edges.append((lock, site))
                    else:
                        self._edges.setdefault((holder, lock), site)
                acquired.append(lock)
            for stmt in child.body:
                self._visit(module, stmt, enclosing_class, tuple(acquired))
            return
        self._walk(module, child, enclosing_class, held)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def finalize(self) -> Iterator[Finding]:
        for lock, site in self._self_edges:
            yield self.finding(
                site.module,
                site.node,
                f"lock '{lock}' is acquired while already held on this path; "
                "threading.Lock is non-reentrant — this deadlocks",
            )
        for component in self._cycles():
            members = " -> ".join(component + [component[0]])
            # Anchor the report at every edge inside the cycle so each
            # conflicting site is visible.
            for (held, acquired), site in sorted(
                self._edges.items(), key=lambda kv: (kv[1].module.path, kv[1].node.lineno)
            ):
                if held in component and acquired in component:
                    yield self.finding(
                        site.module,
                        site.node,
                        f"lock acquisition '{held}' -> '{acquired}' participates "
                        f"in an ordering cycle ({members}); pick one global "
                        "order and acquire in that order everywhere",
                    )

    def _cycles(self) -> list[list[str]]:
        """Strongly-connected components with >= 2 members (Tarjan)."""
        graph: dict[str, list[str]] = {}
        for held, acquired in self._edges:
            graph.setdefault(held, []).append(acquired)
            graph.setdefault(acquired, [])

        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        components: list[list[str]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(graph[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(graph[succ])))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) >= 2:
                        components.append(sorted(component))

        for vertex in sorted(graph):
            if vertex not in index:
                strongconnect(vertex)
        return components
