"""CONC001: lock discipline for attributes declared shared via GUARDED_BY.

A module that owns a multi-threaded class declares its discipline once::

    GUARDED_BY = {"MetricsRegistry": ("_lock", ("_counters", "_gauges"))}

meaning: outside ``__init__``, ``self._counters`` may only be touched
lexically inside ``with self._lock:`` or inside a method whose name ends in
``_locked`` (the repo-wide "caller holds the lock" suffix convention).  The
rule also seeds the map for the two classes whose races have actually
bitten: MetricsRegistry and IndexServer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.context import ModuleContext, Project
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: class name -> (lock attribute, guarded attributes).
GuardMap = Dict[str, Tuple[str, Tuple[str, ...]]]

#: Built-in discipline for the known multi-threaded classes.  A module-level
#: ``GUARDED_BY`` dict in the linted file extends/overrides these entries.
_SEED_GUARDS: Dict[str, GuardMap] = {
    "repro/obs/registry.py": {
        "MetricsRegistry": (
            "_lock",
            ("_counters", "_gauges", "_histograms"),
        ),
    },
    "repro/distributed/server.py": {
        "IndexServer": (
            "_cond",
            (
                "reports",
                "expected",
                "frames_rejected",
                "coordinator",
                "_shards",
                "_assignable",
                "_registered",
                "_evicted",
                "_shard_activity",
                "_round_batches",
                "_round_broadcasts",
                "_round_pending_fetch",
                "_round_opened",
                "_completed_hours",
                "_rounds_completed",
                "_telemetry",
                "_failure",
                "_last_activity",
                "_stopped",
            ),
        ),
    },
}


def _declared_guards(module: ModuleContext) -> GuardMap:
    """Parse a module-level ``GUARDED_BY = {...}`` literal, if present."""
    guards: GuardMap = {}
    for statement in module.tree.body:
        if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
            continue
        target = statement.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "GUARDED_BY"):
            continue
        if not isinstance(statement.value, ast.Dict):
            continue
        for key, value in zip(statement.value.keys, statement.value.values):
            class_name = _constant_str(key)
            if class_name is None:
                continue
            if not isinstance(value, (ast.Tuple, ast.List)):
                continue
            if len(value.elts) != 2:
                continue
            lock = _constant_str(value.elts[0])
            attrs_node = value.elts[1]
            if lock is None or not isinstance(attrs_node, (ast.Tuple, ast.List)):
                continue
            attrs = tuple(
                name
                for name in (_constant_str(elt) for elt in attrs_node.elts)
                if name is not None
            )
            guards[class_name] = (lock, attrs)
    return guards


def _constant_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register_rule
class LockDiscipline(Rule):
    rule_id = "CONC001"
    title = "guarded attribute accessed outside its lock"
    rationale = (
        "Shared mutable state declared in a GUARDED_BY map must only be "
        "touched in __init__, lexically inside `with self.<lock>:`, or in a "
        "method whose name ends in _locked (the repo convention for 'caller "
        "holds the lock').  Unlocked reads of pool handles, report maps or "
        "round state are exactly the races the fault-injection harness "
        "exists to catch — catch them at lint time instead."
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        guards: GuardMap = dict(_SEED_GUARDS.get(module.logical, {}))
        guards.update(_declared_guards(module))
        if not guards:
            return
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if class_node.name not in guards:
                continue
            lock, attrs = guards[class_node.name]
            attr_set = frozenset(attrs)
            for node in ast.walk(class_node):
                finding = self._check_node(module, node, lock, attr_set)
                if finding is not None:
                    yield finding

    def _check_node(
        self,
        module: ModuleContext,
        node: ast.AST,
        lock: str,
        attrs: frozenset,
    ) -> Optional[Finding]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in attrs
        ):
            if self._in_guarded_context(module, node, lock):
                return None
            line, col = module.finding_location(node)
            return Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=(
                    f"guarded attribute 'self.{node.attr}' accessed outside "
                    f"'with self.{lock}:'"
                ),
                hint="take the lock, or move the access into a *_locked "
                "method whose callers hold it",
            )
        # Calling a *_locked helper without holding the lock is the same bug
        # one level up.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr.endswith("_locked")
        ):
            if self._in_guarded_context(module, node, lock):
                return None
            line, col = module.finding_location(node)
            return Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=(
                    f"'self.{node.func.attr}()' called without holding "
                    f"'self.{lock}'"
                ),
                hint="_locked methods document a held-lock precondition; "
                "wrap the call in `with self.{}:`".format(lock),
            )
        return None

    def _in_guarded_context(
        self, module: ModuleContext, node: ast.AST, lock: str
    ) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Any enclosing function counts: a closure nested inside a
                # *_locked method inherits the held-lock guarantee.
                if ancestor.name == "__init__" or ancestor.name.endswith(
                    "_locked"
                ):
                    return True
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and expr.attr == lock
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                    ):
                        return True
            if isinstance(ancestor, ast.ClassDef):
                break
        return False
