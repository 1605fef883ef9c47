"""RES001: closeable objects constructed without an ownership story.

The repo's long campaigns hold sockets, SQLite/DuckDB connections and
process pools.  A ``DifferentialTester(...)`` constructed and dropped leaks
all three.  The rule tracks the constructors of every ``.close()``-bearing
type in the tree and accepts any recognizable ownership pattern: ``with``,
close-in-finally, returning/yielding the object, storing it on ``self``,
or passing it to another call (ownership transfer).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import ModuleContext, Project
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: Constructors (or factories) whose result bears ``.close()``.
_CLOSEABLE_CONSTRUCTORS = frozenset(
    {
        "DifferentialTester",
        "RemoteSyncTransport",
        "ScriptedClient",
        "FaultyProxy",
        "SQLiteBackend",
        "DuckDBBackend",
        "backend_from_name",
    }
)

#: ``socket.<attr>(...)`` factories returning closeables.
_SOCKET_FACTORIES = frozenset({"socket", "create_connection"})


def _constructor_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name) and func.id in _CLOSEABLE_CONSTRUCTORS:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _SOCKET_FACTORIES
        and isinstance(func.value, ast.Name)
        and func.value.id == "socket"
    ):
        return "socket." + func.attr
    return None


@register_rule
class LeakedCloseable(Rule):
    rule_id = "RES001"
    title = "closeable constructed without with/finally/ownership transfer"
    rationale = (
        "Backends, transports and sockets all hold OS resources; "
        "campaign code runs for hours, so a single leaked constructor "
        "becomes thousands of leaked handles.  Every construction must show "
        "its ownership: a `with` block, a close() in finally/except, being "
        "returned/yielded to a caller, being stored on an owner object, or "
        "being handed to another call."
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _constructor_name(node)
            if name is None:
                continue
            if self._is_owned(module, node):
                continue
            line, col = module.finding_location(node)
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=f"{name}(...) constructed without a visible owner",
                hint="use `with`, close it in a finally block, store it on "
                "an owner, or return it to the caller",
            )

    def _is_owned(self, module: ModuleContext, call: ast.Call) -> bool:
        parent = module.parent(call)
        previous: ast.AST = call
        # Walk out of wrapping expressions (conditionals, casts, tuples).
        while isinstance(
            parent, (ast.IfExp, ast.BoolOp, ast.Tuple, ast.Starred)
        ):
            previous = parent
            parent = module.parent(parent)
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(parent, ast.Call) and previous is not parent.func:
            return True  # passed straight into another call
        if isinstance(parent, ast.keyword):
            return True
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            if all(isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets):
                return True  # stored on an owner object
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names:
                scope = module.enclosing_function(call) or module.tree
                return all(
                    self._name_is_owned(scope, name) for name in names
                )
        return False

    def _name_is_owned(self, scope: ast.AST, name: str) -> bool:
        """Does *scope* visibly take responsibility for local *name*?"""
        for node in ast.walk(scope):
            if isinstance(node, ast.withitem):
                if _expr_is_name(node.context_expr, name):
                    return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _mentions_name(node.value, name):
                    return True
            elif isinstance(node, ast.Try):
                for cleanup in list(node.finalbody) + [
                    stmt for handler in node.handlers for stmt in handler.body
                ]:
                    if _contains_close_of(cleanup, name):
                        return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if (
                    value is not None
                    and _mentions_name(value, name)
                    and any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in targets
                    )
                ):
                    return True  # re-homed onto an owner object
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and _expr_is_name(
                    node.func.value, name
                ):
                    continue  # a method call on the object is not a transfer
                for argument in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    if _mentions_name(argument, name):
                        return True  # handed to another call
        return False


def _expr_is_name(expr: ast.AST, name: str) -> bool:
    return isinstance(expr, ast.Name) and expr.id == name


def _mentions_name(expr: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(expr)
    )


def _contains_close_of(statement: ast.stmt, name: str) -> bool:
    for node in ast.walk(statement):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("close", "stop", "shutdown")
            and _expr_is_name(node.func.value, name)
        ):
            return True
        # `closer = getattr(x, "close", None)` style indirect cleanup.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and node.args
            and _expr_is_name(node.args[0], name)
        ):
            return True
    return False
