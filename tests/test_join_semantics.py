"""Each join type's semantics are declared once, on ``JoinType``.

``plan/logical.py`` declares, per member, which sides the join pads, whether
it keeps the new table's columns, whether it needs a key, its SQL form and
the Table 2 set algebra of the rows it keeps.  Everything else derives its
per-type branches from those declarations, so adding an operator touches
one site.  Two guards hold that in place:

* outside the declaration and the two modules whose code is per-type by
  nature (``plan/joins.py`` emits rows per type, ``plan/sqlrender.py``
  checks per-type dialect support), no ``src/repro`` module compares a
  ``JoinType`` member or puts one in a set operation.  Naming members as
  data stays allowed: generator weights and direction rules, dialect bug
  sets, baseline grammars;
* the declarations agree with what the bug-free executor does, under every
  physical algorithm.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.expr.ast import ColumnRef
from repro.lint.engine import iter_python_files
from repro.plan import (
    ExecutionHooks,
    Join,
    JoinAlgorithm,
    JoinKeySpec,
    JoinType,
    PhysicalOperator,
)
from repro.plan.logical import JoinStep, TableRef
from repro.sqlvalue import NULL, TypeCategory
from repro.sqlvalue.values import is_null

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNERS = {"plan/logical.py", "plan/joins.py", "plan/sqlrender.py"}
COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)
SET_OPERATIONS = (ast.BitAnd, ast.BitOr, ast.Sub)


def _members_in(node: ast.AST):
    """Every ``JoinType.<member>`` written inside *node*."""
    for child in ast.walk(node):
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id == "JoinType" and child.attr in JoinType.__members__):
            yield child


def _tested_operands(node: ast.AST):
    """The operands of *node* if it compares or combines sets, else none."""
    if isinstance(node, ast.Compare) and any(isinstance(op, COMPARISONS)
                                             for op in node.ops):
        return [node.left, *node.comparators]
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATIONS):
        return [node.left, node.right]
    if isinstance(node, ast.AugAssign) and isinstance(node.op, SET_OPERATIONS):
        return [node.value]
    return []


def member_tests():
    """``path:line JoinType.X`` for every member tested outside the owners."""
    found = []
    for path in map(Path, iter_python_files([str(PACKAGE)])):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative in OWNERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for operand in _tested_operands(node):
                found.extend(f"{relative}:{member.lineno} JoinType.{member.attr}"
                             for member in _members_in(operand))
    return found


def test_no_module_outside_the_owners_tests_a_join_type_member():
    assert member_tests() == []


@pytest.mark.parametrize("source, tested", [
    ("step.join_type is JoinType.CROSS", True),
    ("t not in (JoinType.SEMI, JoinType.ANTI)", True),
    ("types & {JoinType.LEFT_OUTER}", True),
    ("types -= {JoinType.RIGHT_OUTER}", True),
    ("weights = {JoinType.INNER: 0.4}", False),
    ("allowed.append(JoinType.FULL_OUTER)", False),
    ("bugs = frozenset({JoinType.SEMI})", False),
    ("step.join_type.keyed is False", False),
])
def test_the_guard_tells_tests_from_data(source, tested):
    tree = ast.parse(source)
    hits = [member for node in ast.walk(tree) for operand in _tested_operands(node)
            for member in _members_in(operand)]
    assert bool(hits) is tested


def test_every_member_declares_every_property():
    for join_type in JoinType:
        for name in ("pads_left", "pads_right", "exposes_right_columns", "keyed"):
            assert type(getattr(join_type, name)) is bool, (join_type, name)
        assert isinstance(join_type.keyword, str) and join_type.keyword
        assert callable(join_type.kept_rows)
        assert join_type.is_outer is (join_type.pads_left or join_type.pads_right)
        assert join_type.filters_by_existence is (not join_type.exposes_right_columns)


class _Rows(PhysicalOperator):
    """A fixed input with named columns."""

    def __init__(self, columns, rows):
        self._columns = columns
        self._rows = rows

    def rows(self):
        return iter(self._rows)

    def output_columns(self):
        return list(self._columns)


LEFT_COLUMNS = ["l.id", "l.k"]
RIGHT_COLUMNS = ["r.k", "r.payload"]
keys = st.one_of(st.integers(0, 3), st.just(NULL))


def _left_rows(drawn):
    # A NULL key and a key no right row holds: both never match.
    return [(index, key) for index, key in enumerate([NULL, 100] + drawn)]


def _right_rows(drawn):
    return [(key, f"p{index}") for index, key in enumerate([NULL, 200] + drawn)]


def _matched(key, others):
    return not is_null(key) and any(key == other for other in others)


@settings(max_examples=40, deadline=None)
@given(st.lists(keys, max_size=4), st.lists(keys, max_size=4))
def test_declarations_agree_with_the_executor(left_keys, right_keys):
    left_rows = _left_rows(left_keys)
    right_rows = _right_rows(right_keys)
    unmatched_left = [row for row in left_rows
                      if not _matched(row[1], [r[0] for r in right_rows])]
    unmatched_right = [row for row in right_rows
                       if not _matched(row[0], [l[1] for l in left_rows])]
    width = len(LEFT_COLUMNS) + len(RIGHT_COLUMNS)
    for join_type in JoinType:
        key = (JoinKeySpec("l.k", "r.k", TypeCategory.INTEGER)
               if join_type.keyed else None)
        for algorithm in JoinAlgorithm:
            join = Join(_Rows(LEFT_COLUMNS, left_rows), _Rows(RIGHT_COLUMNS, right_rows),
                        join_type, algorithm, key, hooks=ExecutionHooks())
            output = join.execute()
            expected = LEFT_COLUMNS + (RIGHT_COLUMNS if join_type.exposes_right_columns
                                       else [])
            assert join.output_columns() == expected
            assert all(len(row) == len(expected) for row in output)
            right_padded = {row[:2] for row in output
                            if len(row) == width and all(map(is_null, row[2:]))}
            assert (set(unmatched_left) <= right_padded) is join_type.pads_right
            assert bool(right_padded) is join_type.pads_right
            left_padded = {row[2:] for row in output
                           if len(row) == width and all(map(is_null, row[:2]))}
            assert (set(unmatched_right) <= left_padded) is join_type.pads_left
            assert bool(left_padded) is join_type.pads_left
            if join_type.filters_by_existence:
                assert set(output) <= set(left_rows)


@pytest.mark.parametrize("join_type", list(JoinType))
def test_a_step_without_keys_is_refused_exactly_when_keyed(join_type):
    table = TableRef("t1", "t1")
    if join_type.keyed:
        with pytest.raises(PlanError):
            JoinStep(table, join_type)
    else:
        JoinStep(table, join_type)
    JoinStep(table, join_type, ColumnRef("t0", "k"), ColumnRef("t1", "k"))
