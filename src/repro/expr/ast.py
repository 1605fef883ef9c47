"""Expression AST shared by filters, join conditions, projections and subqueries.

Every node compiles itself against a row layout into a closure over tuple rows,
renders itself back to SQL text, and reports the columns it references.
:meth:`Expression.compile` takes the layout -- the column names of the rows the
closure will see, in slot order -- and the plan's subquery runner, resolves
every column reference to a slot once, and returns a ``row -> value`` function;
the physical operators compile their expressions when a plan is built and call
the closures per row.  :meth:`Expression.eval` evaluates against a dictionary
row through the same closures, for one-off use.  Boolean-valued nodes return
``True`` / ``False`` / :data:`~repro.sqlvalue.values.NULL` (UNKNOWN) following SQL
three-valued logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ExpressionError
from repro.sqlvalue.casts import to_decimal, to_double_lossy
from repro.sqlvalue.comparison import (
    null_safe_equal,
    sql_compare,
    sql_equal,
    truth_value,
)
from repro.sqlvalue.values import NULL, is_null, render_literal

ColumnKey = Tuple[Optional[str], str]
"""A (table-or-alias, column) pair; the table part may be None for unqualified refs."""

Layout = Sequence[str]
"""The column names of a tuple row, in slot order."""

Compiled = Callable[[tuple], Any]
"""A compiled expression: evaluates the node against one tuple row."""

SubqueryRunner = Optional[Callable[[Any], List[tuple]]]
"""Runs an uncorrelated subquery (a logical QuerySpec) and returns its rows."""


class EvalContext:
    """A dictionary row plus a subquery runner, for one-off evaluation.

    Attributes
    ----------
    row:
        Mapping from qualified column name (``"t1.col"``) and/or bare column name
        to the current value.
    subquery_executor:
        Runs IN/EXISTS/scalar subqueries; receives the subquery object and
        returns a list of result rows (tuples).
    """

    __slots__ = ("row", "subquery_executor")

    def __init__(self, row: Dict[str, Any],
                 subquery_executor: SubqueryRunner = None) -> None:
        self.row = row
        self.subquery_executor = subquery_executor


def is_true(value: Any) -> bool:
    """Whether an evaluated predicate is TRUE (not FALSE, not UNKNOWN)."""
    return value is True or (value is not False and truth_value(value) is True)


class Expression:
    """Base class for all expression nodes."""

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        """Compile the node into a closure over rows laid out as *layout*."""
        raise NotImplementedError

    def eval(self, ctx: EvalContext) -> Any:
        """Evaluate the node against a dictionary row (compiles on every call)."""
        row = ctx.row
        return self.compile(tuple(row), ctx.subquery_executor)(tuple(row.values()))

    def render(self) -> str:
        """Render the node back to SQL text."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        """Direct child expressions."""
        return ()

    def references(self) -> Set[ColumnKey]:
        """All column references in the subtree."""
        refs: Set[ColumnKey] = set()
        stack: List[Expression] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ColumnRef):
                refs.add((node.table, node.column))
            stack.extend(node.children())
        return refs

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{type(self).__name__}({self.render()})"


@dataclass(frozen=True, repr=False)
class ColumnRef(Expression):
    """A reference to ``table.column`` (table may be an alias or None)."""

    table: Optional[str]
    column: str

    def slot(self, layout: Layout) -> Optional[int]:
        """The slot of *layout* this reference reads, or None.

        Resolution order: the qualified name, then the bare column name, then
        -- for an unqualified reference -- the one qualified name ending in
        ``.column``.  A name listed twice resolves to its last slot.
        """
        positions = {name: index for index, name in enumerate(layout)}
        if self.table is not None:
            qualified = positions.get(f"{self.table}.{self.column}")
            if qualified is not None:
                return qualified
        if self.column in positions:
            return positions[self.column]
        if self.table is None:
            suffix = f".{self.column}"
            matches = [name for name in positions if name.endswith(suffix)]
            if len(matches) == 1:
                return positions[matches[0]]
        return None

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        slot = self.slot(layout)
        if slot is not None:
            return itemgetter(slot)
        message = (
            f"cannot resolve column {self.render()} "
            f"against row keys {sorted(layout)}"
        )

        def unresolved(row: tuple) -> Any:
            raise ExpressionError(message)

        return unresolved

    def render(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    @property
    def key(self) -> ColumnKey:
        """The (table, column) pair."""
        return (self.table, self.column)


@dataclass(frozen=True, repr=False)
class Literal(Expression):
    """A constant value."""

    value: Any

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        value = self.value
        return lambda row: value

    def render(self) -> str:
        return render_literal(self.value)


_COMPARISON_OUTCOMES = {
    "=": (False, True, False),
    "<>": (True, False, True),
    "!=": (True, False, True),
    "<": (True, False, False),
    "<=": (True, True, False),
    ">": (False, False, True),
    ">=": (False, True, True),
}
"""Each operator's result for a ``sql_compare`` of -1, 0 and 1."""

_COMPARISON_OPS = set(_COMPARISON_OUTCOMES) | {"<=>"}

_PLAIN_TYPES = (str, int, float)
"""Types whose same-type pairs compare natively, as in ``sql_compare``."""


@dataclass(frozen=True, repr=False)
class Comparison(Expression):
    """A binary comparison with three-valued logic."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ExpressionError(f"unsupported comparison operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        left = self.left.compile(layout, subqueries)
        right = self.right.compile(layout, subqueries)
        if self.op == "<=>":
            return lambda row: null_safe_equal(left(row), right(row))
        if self.op == "=":

            def equal(row: tuple) -> Any:
                a = left(row)
                b = right(row)
                kind = type(a)
                if kind is type(b) and kind in _PLAIN_TYPES:
                    # NaN is neither less nor greater than a float, so
                    # sql_compare calls it equal; == does not.
                    return a == b or (kind is float and not (a < b or a > b))
                cmp = sql_compare(a, b)
                return NULL if cmp is None else cmp == 0

            return equal
        outcomes = _COMPARISON_OUTCOMES[self.op]

        def compare(row: tuple) -> Any:
            cmp = sql_compare(left(row), right(row))
            return NULL if cmp is None else outcomes[cmp + 1]

        return compare

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True, repr=False)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` (never UNKNOWN)."""

    operand: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operand = self.operand.compile(layout, subqueries)
        if self.negated:
            return lambda row: not is_null(operand(row))
        return lambda row: is_null(operand(row))

    def render(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {suffix})"


@dataclass(frozen=True, repr=False)
class Not(Expression):
    """Logical NOT with three-valued logic."""

    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operand = self.operand.compile(layout, subqueries)

        def negate(row: tuple) -> Any:
            value = truth_value(operand(row))
            return NULL if value is None else not value

        return negate

    def render(self) -> str:
        return f"(NOT {self.operand.render()})"


@dataclass(frozen=True, repr=False)
class And(Expression):
    """N-ary logical AND."""

    operands: Tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        flattened: List[Expression] = []
        for operand in operands:
            if isinstance(operand, And):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        if not flattened:
            raise ExpressionError("AND requires at least one operand")
        object.__setattr__(self, "operands", tuple(flattened))

    def children(self) -> Sequence[Expression]:
        return self.operands

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operands = tuple(op.compile(layout, subqueries) for op in self.operands)

        def conjunction(row: tuple) -> Any:
            unknown = False
            for operand in operands:
                value = operand(row)
                if value is True:
                    continue
                if value is not False:
                    value = truth_value(value)
                    if value is None:
                        unknown = True
                        continue
                    if value:
                        continue
                return False
            return NULL if unknown else True

        return conjunction

    def render(self) -> str:
        return "(" + " AND ".join(op.render() for op in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Or(Expression):
    """N-ary logical OR."""

    operands: Tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        flattened: List[Expression] = []
        for operand in operands:
            if isinstance(operand, Or):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        if not flattened:
            raise ExpressionError("OR requires at least one operand")
        object.__setattr__(self, "operands", tuple(flattened))

    def children(self) -> Sequence[Expression]:
        return self.operands

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operands = tuple(op.compile(layout, subqueries) for op in self.operands)

        def disjunction(row: tuple) -> Any:
            unknown = False
            for operand in operands:
                value = operand(row)
                if value is False:
                    continue
                if value is not True:
                    value = truth_value(value)
                    if value is None:
                        unknown = True
                        continue
                    if not value:
                        continue
                return True
            return NULL if unknown else False

        return disjunction

    def render(self) -> str:
        return "(" + " OR ".join(op.render() for op in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operand = self.operand.compile(layout, subqueries)
        low = self.low.compile(layout, subqueries)
        high = self.high.compile(layout, subqueries)
        negated = bool(self.negated)

        def between(row: tuple) -> Any:
            value = operand(row)
            lower = sql_compare(value, low(row))
            upper = sql_compare(value, high(row))
            if lower is None or upper is None:
                return NULL
            return (lower >= 0 and upper <= 0) is not negated

        return between

    def render(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.render()} {keyword} "
            f"{self.low.render()} AND {self.high.render()})"
        )


@dataclass(frozen=True, repr=False)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with correct NULL semantics."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,) + self.items

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        operand = self.operand.compile(layout, subqueries)
        items = tuple(item.compile(layout, subqueries) for item in self.items)
        negated = bool(self.negated)

        def in_list(row: tuple) -> Any:
            value = operand(row)
            if is_null(value):
                return NULL
            return _membership(value, (item(row) for item in items), negated)

        return in_list

    def render(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        items = ", ".join(item.render() for item in self.items)
        return f"({self.operand.render()} {keyword} ({items}))"


@dataclass(frozen=True, repr=False)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``; the subquery is a logical QuerySpec."""

    operand: Expression
    subquery: Any
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        if subqueries is None:
            return _missing_runner("IN subquery")
        operand = self.operand.compile(layout, subqueries)
        subquery = self.subquery
        negated = bool(self.negated)

        def in_subquery(row: tuple) -> Any:
            value = operand(row)
            rows = subqueries(subquery)
            if is_null(value):
                if not rows:
                    return negated
                return NULL
            return _membership(value, (_first_column(r) for r in rows), negated)

        return in_subquery

    def render(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.render()} {keyword} ({self.subquery.render()}))"


@dataclass(frozen=True, repr=False)
class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: Any
    negated: bool = False

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        if subqueries is None:
            return _missing_runner("EXISTS subquery")
        subquery = self.subquery
        negated = bool(self.negated)
        return lambda row: bool(subqueries(subquery)) is not negated

    def render(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} ({self.subquery.render()}))"


@dataclass(frozen=True, repr=False)
class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a scalar value; the subquery is a QuerySpec.

    Uncorrelated only (the planner's subquery executor ignores the outer
    row).  SQL semantics: an empty subquery result is NULL, a single row
    yields its first column.  More than one row is an *error* in most engines
    but silently takes the first row in SQLite — a divergence no differential
    oracle can adjudicate — so the generator only builds single-row-guaranteed
    subqueries (an aggregate select with no GROUP BY) and evaluation refuses
    multi-row results outright instead of picking an engine to mimic.
    """

    subquery: Any

    @staticmethod
    def resolve_rows(rows: Sequence[Any]) -> Any:
        """Collapse an executed subquery result to its scalar value."""
        if not rows:
            return NULL
        if len(rows) > 1:
            raise ExpressionError(
                f"scalar subquery returned {len(rows)} rows"
            )
        return _first_column(rows[0])

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        if subqueries is None:
            return _missing_runner("scalar subquery")
        subquery = self.subquery
        resolve = self.resolve_rows
        return lambda row: resolve(subqueries(subquery))

    def render(self) -> str:
        return f"({self.subquery.render()})"


_ARITHMETIC_OPS = {"+", "-", "*", "/"}


@dataclass(frozen=True, repr=False)
class Arithmetic(Expression):
    """Binary arithmetic; division by zero yields NULL (MySQL semantics).

    As in MySQL, a string operand converts to DOUBLE, and an exact
    (``int``/``Decimal``) operand meeting a float makes the result DOUBLE.
    """

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unsupported arithmetic operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        left = self.left.compile(layout, subqueries)
        right = self.right.compile(layout, subqueries)
        op = self.op

        def arithmetic(row: tuple) -> Any:
            a = left(row)
            b = right(row)
            if is_null(a) or is_null(b):
                return NULL
            a, b = _numeric_operands(a, b)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                return NULL
            if isinstance(a, float) or isinstance(b, float):
                return a / b
            return to_decimal(a) / to_decimal(b)

        return arithmetic

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True, repr=False)
class FunctionCall(Expression):
    """A small set of scalar functions needed by the generated workloads."""

    name: str
    args: Tuple[Expression, ...]

    _SUPPORTED = ("ABS", "LENGTH", "COALESCE", "UPPER", "LOWER", "IFNULL")

    def __post_init__(self) -> None:
        if self.name.upper() not in self._SUPPORTED:
            raise ExpressionError(f"unsupported function {self.name!r}")

    def children(self) -> Sequence[Expression]:
        return self.args

    def compile(self, layout: Layout, subqueries: SubqueryRunner = None) -> Compiled:
        args = tuple(arg.compile(layout, subqueries) for arg in self.args)
        name = self.name.upper()

        def call(row: tuple) -> Any:
            values = [arg(row) for arg in args]
            if name in ("COALESCE", "IFNULL"):
                for value in values:
                    if not is_null(value):
                        return value
                return NULL
            if not values or is_null(values[0]):
                return NULL
            value = values[0]
            if name == "ABS":
                return abs(value) if isinstance(value, (int, float, Decimal)) else value
            if name == "LENGTH":
                return len(str(value))
            if name == "UPPER":
                return str(value).upper()
            if name == "LOWER":
                return str(value).lower()
            raise ExpressionError(f"unsupported function {self.name!r}")  # pragma: no cover

        return call

    def render(self) -> str:
        args = ", ".join(arg.render() for arg in self.args)
        return f"{self.name.upper()}({args})"


def _numeric_operands(a: Any, b: Any) -> Tuple[Any, Any]:
    """Bring two non-NULL arithmetic operands into one numeric domain.

    A string operand makes both DOUBLE (MySQL's implicit conversion); a
    float meeting a ``Decimal`` makes the ``Decimal`` a float, since MySQL
    computes DECIMAL-with-DOUBLE arithmetic in DOUBLE.  Anything else is left
    to Python, whose ``int``/``float`` and ``int``/``Decimal`` mixes already
    follow that rule.
    """
    if isinstance(a, str) or isinstance(b, str):
        return to_double_lossy(a), to_double_lossy(b)
    if isinstance(a, float):
        if isinstance(b, Decimal):
            return a, float(b)
    elif isinstance(b, float) and isinstance(a, Decimal):
        return float(a), b
    return a, b


def _first_column(row: Any) -> Any:
    """The first value of a subquery result row."""
    return row[0] if isinstance(row, (tuple, list)) else row


def _membership(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    """``value [NOT] IN candidates`` for a non-NULL *value*, with SQL NULLs."""
    saw_unknown = False
    for candidate in candidates:
        eq = sql_equal(value, candidate)
        if eq is True:
            return not negated
        if eq is None:
            saw_unknown = True
    if saw_unknown:
        return NULL
    return negated


def _missing_runner(what: str) -> Compiled:
    """A closure that fails, when evaluated, for want of a subquery runner."""

    def fail(row: tuple) -> Any:
        raise ExpressionError(f"{what} evaluated without a subquery executor")

    return fail


def conjoin(expressions: Iterable[Expression]) -> Optional[Expression]:
    """AND together a sequence of expressions, returning None when empty."""
    items = [expr for expr in expressions if expr is not None]
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(*items)


def column(table: Optional[str], name: str) -> ColumnRef:
    """Shortcut for :class:`ColumnRef`."""
    return ColumnRef(table, name)


def lit(value: Any) -> Literal:
    """Shortcut for :class:`Literal`."""
    return Literal(value)


def eq(left: Expression, right: Expression) -> Comparison:
    """Shortcut for an equality comparison."""
    return Comparison("=", left, right)
