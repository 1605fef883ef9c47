"""Non-join physical operators: scan, filter, project/aggregate, sort, limit."""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.expr.ast import ColumnRef, EvalContext, Expression
from repro.plan.logical import (
    AggregateFunction,
    OrderItem,
    SelectItem,
    unique_output_names,
)
from repro.plan.physical import ExecRow, PhysicalOperator
from repro.sqlvalue.comparison import truth_value
from repro.sqlvalue.values import NULL, is_null, normalize_row, value_sort_key
from repro.storage.database import Database

SubqueryExecutor = Optional[Callable[[Any, EvalContext], List[tuple]]]


class TableScan(PhysicalOperator):
    """Full scan of one stored table, emitting qualified column names."""

    def __init__(self, database: Database, table: str, alias: str) -> None:
        self.database = database
        self.table = table
        self.alias = alias
        self._schema = database.table_schema(table)

    def rows(self) -> Iterator[ExecRow]:
        names = [(f"{self.alias}.{name}", name) for name in self._schema.column_names]
        for stored in self.database.table(self.table).rows:
            yield {qualified: stored[name] for qualified, name in names}

    def output_columns(self) -> List[str]:
        return [f"{self.alias}.{name}" for name in self._schema.column_names]

    def describe(self) -> str:
        return f"TableScan({self.table} AS {self.alias})"


class Filter(PhysicalOperator):
    """Keep rows whose predicate evaluates to TRUE (not FALSE, not UNKNOWN)."""

    def __init__(self, child: PhysicalOperator, predicate: Expression,
                 subquery_executor: SubqueryExecutor = None) -> None:
        self.child = child
        self.predicate = predicate
        self.subquery_executor = subquery_executor

    def rows(self) -> Iterator[ExecRow]:
        for row in self.child.rows():
            ctx = EvalContext(row, self.subquery_executor)
            if truth_value(self.predicate.eval(ctx)) is True:
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
        subquery_executor: SubqueryExecutor = None,
    ) -> None:
        if not items:
            raise ExecutionError("projection requires at least one select item")
        self.child = child
        self.items = list(items)
        self.group_by = list(group_by)
        self.distinct = distinct
        self.subquery_executor = subquery_executor

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
        names = self.output_columns()
        if self._has_aggregates():
            yield from self._aggregate_rows(names)
            return
        seen = set()
        for row in self.child.rows():
            ctx = EvalContext(row, self.subquery_executor)
            values = tuple(item.expression.eval(ctx) for item in self.items)
            if self.distinct:
                key = normalize_row(values)
                if key in seen:
                    continue
                seen.add(key)
            yield dict(zip(names, values))

    def _aggregate_rows(self, names: List[str]) -> Iterator[ExecRow]:
        groups: Dict[tuple, List[ExecRow]] = {}
        order: List[tuple] = []
        for row in self.child.rows():
            ctx = EvalContext(row, self.subquery_executor)
            key = normalize_row(tuple(col.eval(ctx) for col in self.group_by))
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not groups and not self.group_by:
            groups[()] = []
            order.append(())
        for key in order:
            members = groups[key]
            output: Dict[str, Any] = {}
            for position, item in enumerate(self.items):
                output[names[position]] = self._evaluate_item(item, members)
            yield output

    def _evaluate_item(self, item: SelectItem, members: List[ExecRow]) -> Any:
        values = []
        seen = set()
        for row in members:
            ctx = EvalContext(row, self.subquery_executor)
            value = item.expression.eval(ctx)
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
        if item.aggregate is AggregateFunction.SUM:
            return sum(numeric)
        return sum(numeric) / len(numeric)


class Sort(PhysicalOperator):
    """ORDER BY over a materialized child output."""

    def __init__(self, child: PhysicalOperator, order_by: Sequence[OrderItem],
                 subquery_executor: SubqueryExecutor = None) -> None:
        self.child = child
        self.order_by = list(order_by)
        self.subquery_executor = subquery_executor

    def rows(self) -> Iterator[ExecRow]:
        materialized = list(self.child.rows())

        def sort_key(row: ExecRow):
            ctx = EvalContext(row, self.subquery_executor)
            keys = []
            for item in self.order_by:
                key = value_sort_key(item.expression.eval(ctx))
                keys.append(Descending(key) if item.descending else key)
            return tuple(keys)

        materialized.sort(key=sort_key)
        yield from materialized

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
