"""Test-case reduction (the role C-Reduce plays in the paper, §5.1).

Before reporting a bug, the paper minimizes the failing query with C-Reduce so
developers receive a small test case.  The reducer here performs structured delta
debugging directly on the :class:`~repro.plan.logical.QuerySpec`: it repeatedly
tries dropping join steps, filter conjuncts, GROUP BY columns and projection
items, keeping a change only when the provided failure predicate still holds.
"""

from __future__ import annotations
from typing import Callable, List

from repro.expr.ast import And, Expression
from repro.plan.logical import QuerySpec

FailurePredicate = Callable[[QuerySpec], bool]
"""Returns True when the (reduced) query still triggers the bug."""


def _copy_query(query: QuerySpec, **overrides) -> QuerySpec:
    base = QuerySpec(
        base=query.base,
        joins=list(query.joins),
        select=list(query.select),
        where=query.where,
        group_by=list(query.group_by),
        order_by=list(query.order_by),
        distinct=query.distinct,
        limit=query.limit,
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class QueryReducer:
    """Structured delta-debugging over generated join queries."""

    def __init__(self, still_fails: FailurePredicate, max_rounds: int = 4) -> None:
        self.still_fails = still_fails
        self.max_rounds = max_rounds
        self.attempts = 0

    # ------------------------------------------------------------------ passes

    def _try(self, candidate: QuerySpec) -> bool:
        try:
            candidate.validate()
        except Exception:
            return False
        self.attempts += 1
        try:
            return self.still_fails(candidate)
        except Exception:
            return False

    def _reduce_joins(self, query: QuerySpec) -> QuerySpec:
        changed = True
        while changed and query.joins:
            changed = False
            for index in range(len(query.joins) - 1, -1, -1):
                remaining = query.joins[:index] + query.joins[index + 1:]
                dropped_alias = query.joins[index].table.alias
                select = [
                    item for item in query.select
                    if all(t != dropped_alias for t, _ in item.expression.references())
                ]
                group_by = [
                    ref for ref in query.group_by if ref.table != dropped_alias
                ]
                where = query.where
                if where is not None and any(
                    t == dropped_alias for t, _ in where.references()
                ):
                    where = None
                if not select:
                    continue
                candidate = _copy_query(
                    query, joins=remaining, select=select, group_by=group_by, where=where
                )
                if self._try(candidate):
                    query = candidate
                    changed = True
                    break
        return query

    def _reduce_where(self, query: QuerySpec) -> QuerySpec:
        where = query.where
        if where is None:
            return query
        candidate = _copy_query(query, where=None)
        if self._try(candidate):
            return candidate
        if isinstance(where, And) and len(where.operands) > 1:
            for index in range(len(where.operands)):
                remaining: List[Expression] = [
                    op for i, op in enumerate(where.operands) if i != index
                ]
                new_where = remaining[0] if len(remaining) == 1 else And(*remaining)
                candidate = _copy_query(query, where=new_where)
                if self._try(candidate):
                    return self._reduce_where(candidate)
        return query

    def _reduce_select(self, query: QuerySpec) -> QuerySpec:
        if len(query.select) <= 1:
            return query
        for index in range(len(query.select) - 1, -1, -1):
            if len(query.select) <= 1:
                break
            remaining = [item for i, item in enumerate(query.select) if i != index]
            dropped = query.select[index]
            group_by = query.group_by
            if dropped.aggregate is None and query.group_by:
                group_by = [
                    ref for ref in query.group_by
                    if (ref.table, ref.column) not in {
                        key for key in [getattr(dropped.expression, "key", None)] if key
                    }
                ]
            candidate = _copy_query(query, select=remaining, group_by=group_by)
            if self._try(candidate):
                query = candidate
        return query

    # ------------------------------------------------------------------ driver

    def reduce(self, query: QuerySpec) -> QuerySpec:
        """Minimize *query* while the failure predicate keeps holding."""
        if not self._try(query):
            return query
        current = query
        for _ in range(self.max_rounds):
            before = current
            current = self._reduce_joins(current)
            current = self._reduce_where(current)
            current = self._reduce_select(current)
            if current == before:
                break
        return current
