"""Every function, method and class in ``src/repro`` is referenced somewhere.

A name defined once and mentioned nowhere else in the source, tests,
benchmarks, perfbench, examples, README or CI is dead code: no caller runs
it and no test pins it.  The scan is textual (a whole-word match), so a name
reached through a string, such as ``getattr(self, "_emit_inner")``, counts
as referenced.  Three kinds of definition are reached without their name
being spelled out, and are skipped:

* dunders, which Python itself calls;
* definitions under a registering decorator (``@register_rule``), which the
  decorator makes reachable; ``@property``, ``@staticmethod``,
  ``@classmethod``, ``@cached_property`` and ``@dataclass`` register nothing;
* methods of classes derived from a base outside ``repro``, which that base
  calls (``log_message`` on an ``http.server`` handler).

The lint rule fixtures are inputs of the lint tests, not code, and the walk
skips them as the linter's own directory walk does.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from repro.lint.engine import iter_python_files

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = [
    *(path for tree in ("src", "tests", "benchmarks", "perfbench", "examples")
      for path in (ROOT / tree).rglob("*.py")),
    ROOT / "README.md",
    *(ROOT / ".github").rglob("*.yml"),
]
NON_REGISTERING = {"property", "staticmethod", "classmethod", "cached_property",
                   "dataclass"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _registers(definition) -> bool:
    return any(_base_name(d) not in NON_REGISTERING
               for d in definition.decorator_list)


def _definitions():
    """(path, class or None, definition) for every def and class in the package."""
    for path in map(Path, iter_python_files([str(PACKAGE)])):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        pending = [(node, None) for node in tree.body]
        while pending:
            node, owner = pending.pop()
            if isinstance(node, DEFINITIONS):
                yield path, owner, node
            scope = node if isinstance(node, ast.ClassDef) else owner
            pending.extend((child, scope) for child in ast.iter_child_nodes(node))


def _foreign_derived(definitions) -> set:
    """Names of classes with a base, direct or inherited, outside ``repro``."""
    bases = {node.name: [_base_name(b) for b in node.bases if _base_name(b) != "object"]
             for _, _, node in definitions if isinstance(node, ast.ClassDef)}
    foreign: set = set()
    while True:
        grown = {name for name, names in bases.items()
                 if any(base not in bases or base in foreign for base in names)}
        if grown == foreign:
            return foreign
        foreign = grown


def unreferenced_names():
    definitions = list(_definitions())
    foreign = _foreign_derived(definitions)
    words = Counter(
        word for path in SEARCHED
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unreferenced = []
    for path, owner, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _registers(node):
            continue
        if owner is not None and owner.name in foreign:
            continue
        if words[name] < 2:
            where = f"{owner.name}.{name}" if owner is not None else name
            unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {where}")
    return unreferenced


def test_every_definition_is_referenced_elsewhere():
    assert unreferenced_names() == []
