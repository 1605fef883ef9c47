"""Expression AST shared by filters, join conditions, projections and subqueries.

Every node can evaluate itself against an :class:`EvalContext`, render itself back
to SQL text, and report the columns it references.  Boolean-valued nodes return
``True`` / ``False`` / :data:`~repro.sqlvalue.values.NULL` (UNKNOWN) following SQL
three-valued logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ExpressionError
from repro.sqlvalue.comparison import (
    logical_and,
    logical_not,
    logical_or,
    null_safe_equal,
    sql_compare,
    sql_equal,
    truth_value,
)
from repro.sqlvalue.values import NULL, is_null, render_literal

ColumnKey = Tuple[Optional[str], str]
"""A (table-or-alias, column) pair; the table part may be None for unqualified refs."""


class EvalContext:
    """Everything an expression needs at evaluation time.

    Attributes
    ----------
    row:
        Mapping from qualified column name (``"t1.col"``) and/or bare column name
        to the current value.
    subquery_executor:
        Callback invoked for IN/EXISTS subqueries; receives the subquery object
        and the current context and returns a list of result rows (tuples).
    """

    __slots__ = ("row", "subquery_executor")

    def __init__(
        self,
        row: Dict[str, Any],
        subquery_executor: Optional[Callable[[Any, "EvalContext"], List[tuple]]] = None,
    ) -> None:
        self.row = row
        self.subquery_executor = subquery_executor

    def lookup(self, table: Optional[str], column: str) -> Any:
        """Resolve a column reference against the current row."""
        if table is not None:
            qualified = f"{table}.{column}"
            if qualified in self.row:
                return self.row[qualified]
        if column in self.row:
            return self.row[column]
        # Fall back to a suffix match for unqualified references against
        # qualified row keys (single-owner columns only).
        matches = [key for key in self.row if key.endswith(f".{column}")]
        if table is None and len(matches) == 1:
            return self.row[matches[0]]
        raise ExpressionError(
            f"cannot resolve column {table + '.' if table else ''}{column} "
            f"against row keys {sorted(self.row)}"
        )


class Expression:
    """Base class for all expression nodes."""

    def eval(self, ctx: EvalContext) -> Any:
        """Evaluate the node against *ctx*."""
        raise NotImplementedError

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

    def __post_init__(self) -> None:
        # The row key this reference usually resolves to, built once here
        # rather than on every evaluation; not a dataclass field.
        qualified = self.column if self.table is None else f"{self.table}.{self.column}"
        object.__setattr__(self, "_row_key", qualified)

    def eval(self, ctx: EvalContext) -> Any:
        try:
            return ctx.row[self._row_key]
        except KeyError:
            return ctx.lookup(self.table, self.column)

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

    def eval(self, ctx: EvalContext) -> Any:
        return self.value

    def render(self) -> str:
        return render_literal(self.value)


_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">=", "<=>"}


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

    def eval(self, ctx: EvalContext) -> Any:
        left = self.left.eval(ctx)
        right = self.right.eval(ctx)
        if self.op == "<=>":
            return null_safe_equal(left, right)
        cmp = sql_compare(left, right)
        if cmp is None:
            return NULL
        if self.op == "=":
            return cmp == 0
        if self.op in ("<>", "!="):
            return cmp != 0
        if self.op == "<":
            return cmp < 0
        if self.op == "<=":
            return cmp <= 0
        if self.op == ">":
            return cmp > 0
        return cmp >= 0

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True, repr=False)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` (never UNKNOWN)."""

    operand: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, ctx: EvalContext) -> Any:
        result = is_null(self.operand.eval(ctx))
        return (not result) if self.negated else result

    def render(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {suffix})"


@dataclass(frozen=True, repr=False)
class Not(Expression):
    """Logical NOT with three-valued logic."""

    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, ctx: EvalContext) -> Any:
        value = truth_value(self.operand.eval(ctx))
        result = logical_not(value)
        return NULL if result is None else result

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

    def eval(self, ctx: EvalContext) -> Any:
        result: Optional[bool] = True
        for operand in self.operands:
            value = truth_value(operand.eval(ctx))
            result = logical_and(result, value)
            if result is False:
                return False
        return NULL if result is None else result

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

    def eval(self, ctx: EvalContext) -> Any:
        result: Optional[bool] = False
        for operand in self.operands:
            value = truth_value(operand.eval(ctx))
            result = logical_or(result, value)
            if result is True:
                return True
        return NULL if result is None else result

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

    def eval(self, ctx: EvalContext) -> Any:
        value = self.operand.eval(ctx)
        low = self.low.eval(ctx)
        high = self.high.eval(ctx)
        lower = sql_compare(value, low)
        upper = sql_compare(value, high)
        if lower is None or upper is None:
            return NULL
        result = lower >= 0 and upper <= 0
        return (not result) if self.negated else result

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

    def eval(self, ctx: EvalContext) -> Any:
        value = self.operand.eval(ctx)
        if is_null(value):
            return NULL
        saw_unknown = False
        for item in self.items:
            candidate = item.eval(ctx)
            eq = sql_equal(value, candidate)
            if eq is True:
                return False if self.negated else True
            if eq is None:
                saw_unknown = True
        if saw_unknown:
            return NULL
        return True if self.negated else False

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

    def eval(self, ctx: EvalContext) -> Any:
        if ctx.subquery_executor is None:
            raise ExpressionError("IN subquery evaluated without a subquery executor")
        value = self.operand.eval(ctx)
        rows = ctx.subquery_executor(self.subquery, ctx)
        if is_null(value):
            if not rows:
                return True if self.negated else False
            return NULL
        saw_unknown = False
        for row in rows:
            candidate = row[0] if isinstance(row, (tuple, list)) else row
            eq = sql_equal(value, candidate)
            if eq is True:
                return False if self.negated else True
            if eq is None:
                saw_unknown = True
        if saw_unknown:
            return NULL
        return True if self.negated else False

    def render(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.render()} {keyword} ({self.subquery.render()}))"


@dataclass(frozen=True, repr=False)
class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: Any
    negated: bool = False

    def eval(self, ctx: EvalContext) -> Any:
        if ctx.subquery_executor is None:
            raise ExpressionError("EXISTS subquery evaluated without a subquery executor")
        rows = ctx.subquery_executor(self.subquery, ctx)
        result = bool(rows)
        return (not result) if self.negated else result

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
        row = rows[0]
        return row[0] if isinstance(row, (tuple, list)) else row

    def eval(self, ctx: EvalContext) -> Any:
        if ctx.subquery_executor is None:
            raise ExpressionError(
                "scalar subquery evaluated without a subquery executor"
            )
        return self.resolve_rows(ctx.subquery_executor(self.subquery, ctx))

    def render(self) -> str:
        return f"({self.subquery.render()})"


_ARITHMETIC_OPS = {"+", "-", "*", "/"}


@dataclass(frozen=True, repr=False)
class Arithmetic(Expression):
    """Binary arithmetic; division by zero yields NULL (MySQL semantics)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unsupported arithmetic operator {self.op!r}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def eval(self, ctx: EvalContext) -> Any:
        left = self.left.eval(ctx)
        right = self.right.eval(ctx)
        if is_null(left) or is_null(right):
            return NULL
        from repro.sqlvalue.casts import to_decimal, to_double_lossy

        if isinstance(left, str) or isinstance(right, str):
            left = to_double_lossy(left)
            right = to_double_lossy(right)
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        if right == 0:
            return NULL
        return to_decimal(left) / to_decimal(right) if not isinstance(left, float) and not isinstance(right, float) else left / right

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

    def eval(self, ctx: EvalContext) -> Any:
        name = self.name.upper()
        values = [arg.eval(ctx) for arg in self.args]
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

    def render(self) -> str:
        args = ", ".join(arg.render() for arg in self.args)
        return f"{self.name.upper()}({args})"


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
