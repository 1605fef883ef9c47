"""Every ``from repro... import`` in the docs' Python snippets must resolve.

The snippets in README.md and the verify skill are what a reader copies first;
a name deleted from the package must not survive in them.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md")
PYTHON_BLOCK = re.compile(r"^([ \t]*)```python\n(.*?)^\1```", re.M | re.S)


def python_blocks(doc):
    """(line number, source) of every fenced ``python`` block in *doc*."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    for match in PYTHON_BLOCK.finditer(text):
        line = text.count("\n", 0, match.start(2)) + 1
        yield line, textwrap.dedent(match.group(2))


def doc_imports():
    """(where, module, name) for every name the docs import from ``repro``."""
    found = []
    for doc in DOCS:
        for line, source in python_blocks(doc):
            for node in ast.walk(ast.parse(source, filename=doc)):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[0] == "repro"):
                    where = f"{doc}:{line + node.lineno - 1}"
                    found.extend((where, node.module, alias.name)
                                 for alias in node.names)
    return found


def test_the_docs_hold_repro_imports():
    docs = {where.split(":")[0] for where, _, _ in doc_imports()}
    assert docs == set(DOCS)


@pytest.mark.parametrize("where, module, name", doc_imports())
def test_doc_import_resolves(where, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        # ``from package import submodule`` names a module, not an attribute.
        importlib.import_module(f"{module}.{name}")
