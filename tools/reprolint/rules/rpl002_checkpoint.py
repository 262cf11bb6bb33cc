"""RPL002 — checkpoint completeness for stateful classes.

Kill-and-resume is bitwise-exact only while every piece of evolving state
round-trips through ``state_dict``/``load_state_dict``.  The failure mode
this rule targets is the silent one: a new controller/callback/agent grows
a counter or buffer in ``__init__``, nobody extends its ``state_dict``,
and resume drifts a week later under a bench run.  Two checks:

* **Pairing** — a class that defines ``state_dict`` must define (or
  inherit, within the analyzed tree) ``load_state_dict`` and vice versa.
* **Coverage** — for classes rooted in the stateful hierarchies
  (``STATEFUL_ROOTS``): every *public mutable* attribute created in
  ``__init__`` (container literals/comprehensions, non-cast constructor
  calls) must be mentioned — as ``self.attr`` or the string ``"attr"`` —
  in the class's own or an ancestor's ``state_dict``/``load_state_dict``,
  or in a method of the hierarchy those reach through ``self.method``
  (a base ``state_dict`` that asks each subclass for its parts).

Escape hatches, in preference order: a class-level
``CHECKPOINT_EXEMPT = {"attr", ...}`` declaration for derived caches that
are legitimately rebuilt on construction, or an inline
``# reprolint: disable=RPL002`` with a justification comment.
Underscore-prefixed attributes are treated as derived/rebound state and
skipped (the repo's convention; checkpointed private state is re-derived
through public state or handled by the owning harness).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from tools.reprolint.astutils import dotted_name
from tools.reprolint.config import CHECKPOINT_EXEMPT_ATTRS, STATEFUL_ROOTS
from tools.reprolint.core import Finding, ModuleInfo, Rule

__all__ = ["CheckpointCompleteness"]

_PAIR = ("state_dict", "load_state_dict")

# Calls treated as value casts / frozen copies rather than mutable-state
# construction when classifying __init__ assignments.  ``sorted``/``max``/
# ``min``/``abs``/``round`` over config arguments yield plain values that
# never evolve after __init__; ``Path`` objects are immutable.
_CAST_CALLS = frozenset(
    {
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "tuple",
        "frozenset",
        "_pair",
        "sorted",
        "max",
        "min",
        "abs",
        "round",
        "Path",
        "PurePath",
    }
)


@dataclass
class ClassRecord:
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    defines: set[str] = field(default_factory=set)  # of _PAIR members
    mutable_attrs: dict[str, ast.AST] = field(default_factory=dict)
    # Names each method mentions (self attributes + str constants).
    method_refs: dict[str, set[str]] = field(default_factory=dict)
    exempt: set[str] = field(default_factory=set)


def _is_mutable_value(value: ast.AST) -> bool:
    """Heuristic: does this __init__ assignment create evolving state?"""
    if isinstance(
        value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is None:
            return True
        tail = name.split(".")[-1]
        return tail not in _CAST_CALLS
    if isinstance(value, ast.IfExp):
        return _is_mutable_value(value.body) or _is_mutable_value(value.orelse)
    if isinstance(value, ast.BoolOp):
        return any(_is_mutable_value(item) for item in value.values)
    return False


def _self_attr_targets(node: ast.AST) -> list[str]:
    """Attribute names for ``self.X = ...`` style assignment targets."""
    targets: list[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    names = []
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            names.append(target.attr)
    return names


def _collect_references(fn: ast.FunctionDef) -> set[str]:
    """Names mentioned in a state-dict method: self attributes + str keys."""
    referenced: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            referenced.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.add(node.value)
    return referenced


def _class_exemptions(node: ast.ClassDef) -> set[str]:
    """Parse a class-level ``CHECKPOINT_EXEMPT = {...}`` declaration."""
    exempt: set[str] = set()
    for stmt in node.body:
        names: list[str] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
            value = stmt.value
        if "CHECKPOINT_EXEMPT" not in names or value is None:
            continue
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            elements = value.elts
        elif isinstance(value, ast.Call) and value.args:
            inner = value.args[0]
            elements = inner.elts if isinstance(inner, (ast.Set, ast.List, ast.Tuple)) else []
        else:
            elements = []
        for element in elements:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                exempt.add(element.value)
    return exempt


def _checkpoint_references(hierarchy: list[ClassRecord]) -> set[str]:
    """Names mentioned by ``state_dict``/``load_state_dict`` and what they reach.

    Starts from every definition of the pair in the hierarchy and follows
    ``self.<method>`` mentions to any method of that name in the hierarchy,
    so a base ``state_dict`` that calls subclass hooks covers what the
    hooks mention.
    """
    referenced: set[str] = set()
    pending = list(_PAIR)
    visited: set[str] = set()
    while pending:
        name = pending.pop()
        if name in visited:
            continue
        visited.add(name)
        for owner in hierarchy:
            found = owner.method_refs.get(name, set())
            referenced |= found
            pending.extend(found)
    return referenced


class CheckpointCompleteness(Rule):
    code = "RPL002"
    name = "checkpoint-completeness"
    description = (
        "state_dict/load_state_dict must come in pairs, and stateful classes "
        "must checkpoint every public mutable attribute their __init__ creates."
    )

    def __init__(self) -> None:
        self._classes: list[ClassRecord] = []

    # ------------------------------------------------------------------
    # per-module collection
    # ------------------------------------------------------------------
    def visit_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._classes.append(self._collect_class(module, node))
        return ()

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> ClassRecord:
        record = ClassRecord(name=node.name, module=module, node=node)
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                record.bases.append(name.split(".")[-1])
        record.exempt = _class_exemptions(node)
        record.exempt |= CHECKPOINT_EXEMPT_ATTRS.get(node.name, frozenset())
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            record.method_refs[stmt.name] = _collect_references(stmt)
            if stmt.name in _PAIR:
                record.defines.add(stmt.name)
            elif stmt.name == "__init__":
                for body_node in ast.walk(stmt):
                    for attr in _self_attr_targets(body_node):
                        if attr.startswith("_") or attr in record.mutable_attrs:
                            continue
                        value = getattr(body_node, "value", None)
                        if value is not None and _is_mutable_value(value):
                            record.mutable_attrs[attr] = body_node
        return record

    # ------------------------------------------------------------------
    # whole-run analysis
    # ------------------------------------------------------------------
    def finalize(self) -> Iterable[Finding]:
        by_name: dict[str, list[ClassRecord]] = {}
        for record in self._classes:
            by_name.setdefault(record.name, []).append(record)

        for record in self._classes:
            ancestry = self._ancestry(record, by_name)
            yield from self._check_pairing(record, ancestry)
            yield from self._check_coverage(record, ancestry)

    def _ancestry(
        self, record: ClassRecord, by_name: dict[str, list[ClassRecord]]
    ) -> list[ClassRecord]:
        """Transitive base-class records resolvable by bare name."""
        out: list[ClassRecord] = []
        seen: set[str] = {record.name}
        queue = list(record.bases)
        while queue:
            base = queue.pop()
            if base in seen:
                continue
            seen.add(base)
            for ancestor in by_name.get(base, []):
                out.append(ancestor)
                queue.extend(ancestor.bases)
        return out

    def _root_names(self, record: ClassRecord, ancestry: list[ClassRecord]) -> set[str]:
        names = {record.name} | set(record.bases)
        for ancestor in ancestry:
            names.add(ancestor.name)
            names.update(ancestor.bases)
        return names & STATEFUL_ROOTS

    def _check_pairing(
        self, record: ClassRecord, ancestry: list[ClassRecord]
    ) -> Iterable[Finding]:
        if not record.defines or record.defines == set(_PAIR):
            return
        (present,) = record.defines
        missing = _PAIR[1] if present == _PAIR[0] else _PAIR[0]
        if any(missing in ancestor.defines for ancestor in ancestry):
            return
        yield self.finding(
            record.module,
            record.node,
            f"class {record.name} defines {present}() but neither it nor a "
            f"resolvable base defines {missing}(); checkpoints it writes can "
            "never be restored (or vice versa) — implement the counterpart",
        )

    def _check_coverage(
        self, record: ClassRecord, ancestry: list[ClassRecord]
    ) -> Iterable[Finding]:
        if not record.mutable_attrs:
            return
        roots = self._root_names(record, ancestry)
        if not roots:
            return
        defines_anywhere = set(record.defines)
        exempt = set(record.exempt)
        for ancestor in ancestry:
            defines_anywhere |= ancestor.defines
            exempt |= ancestor.exempt
        referenced = _checkpoint_references([record, *ancestry])
        if "state_dict" not in defines_anywhere:
            yield self.finding(
                record.module,
                record.node,
                f"stateful class {record.name} (roots: {', '.join(sorted(roots))}) "
                "creates mutable state in __init__ but has no state_dict() "
                "anywhere in its resolvable hierarchy; it cannot be checkpointed",
            )
            return
        for attr, node in sorted(record.mutable_attrs.items()):
            if attr in exempt or attr in referenced:
                continue
            yield self.finding(
                record.module,
                node,
                f"mutable attribute self.{attr} of stateful class {record.name} "
                "is never mentioned in state_dict()/load_state_dict(); resumed "
                "runs will silently diverge — checkpoint it, or declare it in "
                "CHECKPOINT_EXEMPT with a why-comment if it is derived state",
            )
