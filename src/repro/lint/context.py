"""Parsed-module and whole-tree context shared by every rule.

:class:`ModuleContext` wraps one parsed file with the bookkeeping rules need
constantly: a child->parent map (``ast`` has none), enclosing-scope lookup,
and the module's *logical* path — its path from the ``repro`` package root,
which is what rule scoping is defined over.  Fixture files override their
logical path with a ``# repro-lint: path=repro/...`` directive so a file in
``lint/fixtures/`` can exercise a rule scoped to, say, ``repro/core/``.

:class:`Project` holds every analyzed module and answers the cross-module
questions: which modules are reachable (via imports) from the deterministic
subsystems, and where a dataclass by some name is defined.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

#: Subsystems under the bit-identical determinism contract.  Anything they
#: import (transitively) inherits the contract for DET001 purposes.
DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "repro/core/",
    "repro/kqe/",
    "repro/dsg/",
    "repro/engine/",
    "repro/plan/",
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class ModuleContext:
    """One parsed source file plus the navigation helpers rules share."""

    def __init__(self, path: str, logical: str, source: str) -> None:
        self.path = path
        self.logical = logical
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=path)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._imported_modules: Optional[Set[str]] = None

    @property
    def is_deterministic(self) -> bool:
        """True when this module itself lives under a deterministic prefix."""
        return self.logical.startswith(DETERMINISTIC_PREFIXES)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain from *node*'s parent up to the module node."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionNode]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def imported_modules(self) -> Set[str]:
        """Dotted names of every module imported anywhere in the file.

        Function-level deferred imports count too — the worker pool imports
        the TCP stack inside functions, and reachability must see through
        that, so the collector walks the whole tree rather than just the
        module's top level.
        """
        if self._imported_modules is None:
            found: Set[str] = set()
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        found.add(alias.name)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    base = node.module or ""
                    if base:
                        found.add(base)
                        for alias in node.names:
                            # `from repro.a import b` may name a submodule;
                            # Project.resolve() decides which it was.
                            found.add(base + "." + alias.name)
            self._imported_modules = found
        return self._imported_modules

    def finding_location(self, node: ast.AST) -> Tuple[int, int]:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return (int(line), int(col))


class Project:
    """Every analyzed module, plus lazily computed cross-module views."""

    def __init__(self, modules: List[ModuleContext]) -> None:
        self.modules = modules
        self.by_logical: Dict[str, ModuleContext] = {
            module.logical: module for module in modules
        }
        self._deterministic_closure: Optional[Set[str]] = None
        self._dataclass_fields: Optional[Dict[str, List[str]]] = None

    def resolve(self, dotted: str) -> Optional[ModuleContext]:
        """Map a dotted import name to an analyzed module, if it is one."""
        if not dotted.startswith("repro"):
            return None
        base = dotted.replace(".", "/")
        for candidate in (base + ".py", base + "/__init__.py"):
            module = self.by_logical.get(candidate)
            if module is not None:
                return module
        return None

    def deterministic_closure(self) -> Set[str]:
        """Logical paths of modules the determinism contract covers.

        Seeded with everything under :data:`DETERMINISTIC_PREFIXES`, then
        closed over the import graph: a helper the engine calls is as able
        to break bit-identical replay as the engine itself.
        """
        if self._deterministic_closure is None:
            closure: Set[str] = set()
            frontier: List[ModuleContext] = [
                module for module in self.modules if module.is_deterministic
            ]
            while frontier:
                module = frontier.pop()
                if module.logical in closure:
                    continue
                closure.add(module.logical)
                for dotted in module.imported_modules():
                    imported = self.resolve(dotted)
                    if imported is not None and imported.logical not in closure:
                        frontier.append(imported)
            self._deterministic_closure = closure
        return self._deterministic_closure

    def dataclass_fields(self) -> Dict[str, List[str]]:
        """Dataclass name -> ordered field names, across the whole tree.

        Names are assumed unique tree-wide (true for the wire-layer types
        WIRE001 cares about); collisions keep the first definition seen in
        stable module order.
        """
        if self._dataclass_fields is None:
            fields: Dict[str, List[str]] = {}
            for module in sorted(self.modules, key=lambda m: m.logical):
                for node in ast.walk(module.tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    if not _has_dataclass_decorator(node):
                        continue
                    if node.name in fields:
                        continue
                    fields[node.name] = [
                        statement.target.id
                        for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and not _is_classvar(statement)
                    ]
            self._dataclass_fields = fields
        return self._dataclass_fields


def _has_dataclass_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_classvar(statement: ast.AnnAssign) -> bool:
    annotation = statement.annotation
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"
