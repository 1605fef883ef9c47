"""SEC001: dynamic deserialization or execution anywhere in the tree.

``pickle.loads`` on bytes from a socket is remote code execution, so the wire
protocol speaks HMAC-authenticated JSON only and nothing may unpickle.
``eval``/``exec`` have no legal home either.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext, Project
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule


@register_rule
class UnsafeDeserialization(Rule):
    rule_id = "SEC001"
    title = "pickle.load(s) / eval / exec"
    rationale = (
        "Unpickling attacker-supplied bytes executes arbitrary code; that is "
        "why the wire protocol is HMAC-authenticated JSON frames and nothing "
        "in the tree unpickles.  eval/exec of strings is never acceptable in "
        "this codebase — predicates go through the typed expression AST."
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            message = None
            if isinstance(func, ast.Name) and func.id in ("eval", "exec"):
                message = f"call to builtin {func.id}()"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("loads", "load")
                and isinstance(func.value, ast.Name)
                and func.value.id == "pickle"
            ):
                message = f"call to pickle.{func.attr}()"
            if message is None:
                continue
            line, col = module.finding_location(node)
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=message,
            )
