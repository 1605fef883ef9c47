"""Non-join physical operators: scan, filter, project/aggregate, sort, limit."""

from __future__ import annotations

from decimal import Decimal
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.expr.ast import (
    ColumnRef,
    Compiled,
    Expression,
    Layout,
    SubqueryRunner,
    is_true,
)
from repro.plan.logical import (
    AggregateFunction,
    OrderItem,
    SelectItem,
    unique_output_names,
)
from repro.plan.physical import ExecRow, PhysicalOperator
from repro.plan.sqlrender import SQLRenderer
from repro.sqlvalue.values import NULL, is_null, normalize_row, value_sort_key
from repro.storage.database import Database


def tuple_getter(keys: Sequence[Any]) -> Callable[[Any], ExecRow]:
    """An ``itemgetter`` over *keys* that always returns a tuple."""
    if len(keys) == 1:
        (key,) = keys
        return lambda item: (item[key],)
    if keys:
        return itemgetter(*keys)
    return lambda item: ()


class Compiler:
    """Compiles a plan's expressions against its operators' input layouts.

    Operators call it once, when they are built.  This compiler compiles
    afresh on every call, with the plan's subquery runner; the planner hands
    each plan of a prepared query one that reuses the query's closures across
    its hint sets (:class:`~repro.optimizer.planner.PreparedQuery`).
    """

    def __init__(self, subqueries: SubqueryRunner = None) -> None:
        self.subqueries = subqueries

    def expression(self, expression: Expression, layout: Layout) -> Compiled:
        """*expression* as a ``row -> value`` function over *layout* rows."""
        return expression.compile(layout, self.subqueries)

    def row(self, expressions: Sequence[Expression],
            layout: Layout) -> Callable[[ExecRow], ExecRow]:
        """*expressions* as one ``row -> tuple of their values`` function.

        When every expression is a column reference that resolves, the
        function is a single ``itemgetter`` over their slots.
        """
        slots = [
            expr.slot(layout) if isinstance(expr, ColumnRef) else None
            for expr in expressions
        ]
        if None not in slots:
            return tuple_getter(slots)
        compiled = [self.expression(expr, layout) for expr in expressions]
        return lambda row: tuple([value(row) for value in compiled])


PLAIN_COMPILER = Compiler()
"""The compiler of operators built without one: no subquery runner."""

_PLAN_TEXT = SQLRenderer()
"""Spells the expressions of plan descriptions in the reference dialect."""


class TableScan(PhysicalOperator):
    """Full scan of one stored table, emitting rows in schema column order."""

    def __init__(self, database: Database, table: str, alias: str) -> None:
        self.database = database
        self.table = table
        self.alias = alias
        names = database.table_schema(table).column_names
        self._columns = [f"{alias}.{name}" for name in names]
        self._values = tuple_getter(names)

    def rows(self) -> Iterator[ExecRow]:
        return map(self._values, self.database.table(self.table).rows)

    def output_columns(self) -> List[str]:
        return list(self._columns)

    def describe(self) -> str:
        return f"TableScan({self.table} AS {self.alias})"


class Filter(PhysicalOperator):
    """Keep rows whose predicate evaluates to TRUE (not FALSE, not UNKNOWN)."""

    def __init__(self, child: PhysicalOperator, predicate: Expression,
                 compiler: Compiler = PLAIN_COMPILER) -> None:
        self.child = child
        self.predicate = predicate
        self._predicate = compiler.expression(predicate, child.output_columns())

    def rows(self) -> Iterator[ExecRow]:
        predicate = self._predicate
        for row in self.child.rows():
            if is_true(predicate(row)):
                yield row

    def output_columns(self) -> List[str]:
        return self.child.output_columns()

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({_PLAN_TEXT.expression(self.predicate)})"


class Project(PhysicalOperator):
    """Projection with optional DISTINCT, GROUP BY and aggregates.

    Aggregates operate on DISTINCT input values (``COUNT(DISTINCT ...)`` style)
    because the DSG oracle compares deduplicated result sets; the query generator
    only emits aggregate forms whose semantics are preserved under DISTINCT.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        items: Sequence[SelectItem],
        group_by: Sequence[ColumnRef] = (),
        distinct: bool = True,
        compiler: Compiler = PLAIN_COMPILER,
    ) -> None:
        if not items:
            raise ExecutionError("projection requires at least one select item")
        self.child = child
        self.items = list(items)
        self.group_by = list(group_by)
        self.distinct = distinct
        layout = child.output_columns()
        expressions = [item.expression for item in self.items]
        if self._has_aggregates():
            self._item_values: List[Compiled] = [
                compiler.expression(expr, layout) for expr in expressions
            ]
            self._group_key = compiler.row(self.group_by, layout)
        else:
            self._values = compiler.row(expressions, layout)

    def output_columns(self) -> List[str]:
        return unique_output_names(self.items)

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        suffix = " DISTINCT" if self.distinct else ""
        items = ", ".join(
            _PLAN_TEXT.select_item(item, name)
            for item, name in zip(self.items, self.output_columns())
        )
        return f"Project({items}{suffix})"

    def _has_aggregates(self) -> bool:
        return any(item.aggregate is not None for item in self.items)

    def rows(self) -> Iterator[ExecRow]:
        if self._has_aggregates():
            yield from self._aggregate_rows()
            return
        values_of = self._values
        if not self.distinct:
            yield from map(values_of, self.child.rows())
            return
        seen = set()
        for row in self.child.rows():
            values = values_of(row)
            key = normalize_row(values)
            if key in seen:
                continue
            seen.add(key)
            yield values

    def _aggregate_rows(self) -> Iterator[ExecRow]:
        groups: Dict[tuple, List[ExecRow]] = {}
        group_key = self._group_key
        for row in self.child.rows():
            key = normalize_row(group_key(row))
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
            else:
                members.append(row)
        if not groups and not self.group_by:
            groups[()] = []
        for members in groups.values():
            yield tuple(
                self._evaluate_item(item, value_of, members)
                for item, value_of in zip(self.items, self._item_values)
            )

    @staticmethod
    def _evaluate_item(item: SelectItem, value_of: Compiled,
                       members: List[ExecRow]) -> Any:
        if item.aggregate is None:
            return value_of(members[0]) if members else NULL
        present = [value for value in map(value_of, members) if not is_null(value)]
        # MIN and MAX take the exact value order over every input, as ORDER BY
        # does; dropping inputs that normalise alike (Decimal('0.1') and 0.1)
        # would keep whichever came first.
        if item.aggregate is AggregateFunction.MIN:
            return min(present, key=value_sort_key) if present else NULL
        if item.aggregate is AggregateFunction.MAX:
            return max(present, key=value_sort_key) if present else NULL
        values = []
        seen = set()
        for value in present:
            key = normalize_row((value,))
            if key not in seen:
                seen.add(key)
                values.append(value)
        if item.aggregate is AggregateFunction.COUNT:
            return len(values)
        if not values:
            return NULL
        numeric = [v for v in values if isinstance(v, (int, float, Decimal))]
        if not numeric:
            return NULL
        if any(isinstance(v, float) for v in numeric):
            # MySQL sums DECIMAL with DOUBLE in DOUBLE.
            numeric = [float(v) if isinstance(v, Decimal) else v for v in numeric]
        if item.aggregate is AggregateFunction.SUM:
            return sum(numeric)
        return sum(numeric) / len(numeric)


class Sort(PhysicalOperator):
    """ORDER BY over a materialized child output."""

    def __init__(self, child: PhysicalOperator, order_by: Sequence[OrderItem],
                 compiler: Compiler = PLAIN_COMPILER) -> None:
        self.child = child
        self.order_by = list(order_by)
        layout = child.output_columns()
        self._keys = [
            (compiler.expression(item.expression, layout), item.descending)
            for item in self.order_by
        ]

    def rows(self) -> Iterator[ExecRow]:
        materialized = list(self.child.rows())
        keys = self._keys

        def sort_key(row: ExecRow):
            return tuple(
                Descending(value_sort_key(value_of(row))) if descending
                else value_sort_key(value_of(row))
                for value_of, descending in keys
            )

        materialized.sort(key=sort_key)
        return iter(materialized)

    def output_columns(self) -> List[str]:
        return self.child.output_columns()

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        return f"Sort({', '.join(_PLAN_TEXT.order_item(i) for i in self.order_by)})"


class Descending:
    """Sort-key wrapper that reverses the order of the key it wraps."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Descending) and self.key == other.key

    def __lt__(self, other: "Descending") -> bool:
        return other.key < self.key


class Limit(PhysicalOperator):
    """LIMIT n."""

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        if limit < 0:
            raise ExecutionError("LIMIT must be non-negative")
        self.child = child
        self.limit = limit

    def rows(self) -> Iterator[ExecRow]:
        for index, row in enumerate(self.child.rows()):
            if index >= self.limit:
                return
            yield row

    def output_columns(self) -> List[str]:
        return self.child.output_columns()

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.limit})"


class Materialize(PhysicalOperator):
    """Materialize a child's output once and replay it on every iteration.

    Used by the subquery-materialization strategy; it is also a trigger point for
    the "incorrect ... when using materialization strategy" bug class.
    """

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self._cache: Optional[List[ExecRow]] = None

    def rows(self) -> Iterator[ExecRow]:
        if self._cache is None:
            self._cache = list(self.child.rows())
        return iter(self._cache)

    def output_columns(self) -> List[str]:
        return self.child.output_columns()

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        return "Materialize"
