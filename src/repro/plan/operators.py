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


def compile_row(expressions: Sequence[Expression], layout: Layout,
                subqueries: SubqueryRunner = None) -> Callable[[ExecRow], ExecRow]:
    """Compile *expressions* into one ``row -> tuple of their values`` function.

    When every expression is a column reference that resolves, the function
    is a single ``itemgetter`` over their slots.
    """
    slots = [
        expr.slot(layout) if isinstance(expr, ColumnRef) else None
        for expr in expressions
    ]
    if None not in slots:
        return tuple_getter(slots)
    compiled = [expr.compile(layout, subqueries) for expr in expressions]
    return lambda row: tuple([value(row) for value in compiled])


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
                 subquery_executor: SubqueryRunner = None) -> None:
        self.child = child
        self.predicate = predicate
        self._predicate = predicate.compile(child.output_columns(), subquery_executor)

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
        return f"Filter({self.predicate.render()})"


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
        subquery_executor: SubqueryRunner = None,
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
                expr.compile(layout, subquery_executor) for expr in expressions
            ]
            self._group_key = compile_row(self.group_by, layout, subquery_executor)
        else:
            self._values = compile_row(expressions, layout, subquery_executor)

    def output_columns(self) -> List[str]:
        return unique_output_names(self.items)

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def describe(self) -> str:
        suffix = " DISTINCT" if self.distinct else ""
        return f"Project({', '.join(i.render() for i in self.items)}{suffix})"

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
        values = []
        seen = set()
        for row in members:
            value = value_of(row)
            if item.aggregate is not None and is_null(value):
                continue
            key = normalize_row((value,))
            if key in seen:
                continue
            seen.add(key)
            values.append(value)
        if item.aggregate is None:
            return values[0] if values else NULL
        if item.aggregate is AggregateFunction.COUNT:
            return len(values)
        if not values:
            return NULL
        if item.aggregate is AggregateFunction.MIN:
            return min(values, key=value_sort_key)
        if item.aggregate is AggregateFunction.MAX:
            return max(values, key=value_sort_key)
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
                 subquery_executor: SubqueryRunner = None) -> None:
        self.child = child
        self.order_by = list(order_by)
        layout = child.output_columns()
        self._keys = [
            (item.expression.compile(layout, subquery_executor), item.descending)
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
        return f"Sort({', '.join(i.render() for i in self.order_by)})"


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
