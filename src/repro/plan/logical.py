"""Logical query model: the output of the DSG generator and input of the planner.

A :class:`QuerySpec` is deliberately close to the AST of Figure 5 in the paper: a
SELECT statement over a left-deep chain of joins generated by a random walk on the
schema graph, plus optional filters, projections, DISTINCT, GROUP BY aggregates and
ORDER BY.  :class:`~repro.plan.sqlrender.SQLRenderer` turns a spec into SQL text
(with optional hint comments); its reference dialect is how the campaign logs
reproduce bug reports.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.errors import PlanError
from repro.expr.ast import ColumnRef, Expression
from repro.sqlvalue.values import normalize_row


class JoinType(enum.Enum):
    """The seven join operators supported by DSG (paper §3.4, Table 2).

    The one statement of join semantics; code outside ``plan/`` reads these
    instead of naming members.  ``pads_left``: the tables joined before are
    NULL-padded; ``pads_right``: the new table is; ``exposes_right_columns``:
    the new table's columns reach the output; ``keyed``: an equi-join key is
    required; ``keyword``: the SQL form; ``kept_rows(accumulated, table)``:
    Table 2's set algebra of the wide-table rows (bitmaps) the join keeps.
    ``value`` names the member in plan text and KQE edge labels.
    """

    # value, pads_left, pads_right, exposes_right_columns, keyed, keyword, kept_rows
    INNER = "inner", False, False, True, True, "INNER JOIN", operator.and_
    LEFT_OUTER = ("left_outer", False, True, True, True, "LEFT OUTER JOIN",
                  lambda accumulated, table: accumulated)
    RIGHT_OUTER = ("right_outer", True, False, True, True, "RIGHT OUTER JOIN",
                   lambda accumulated, table: table.copy())
    FULL_OUTER = "full_outer", True, True, True, True, "FULL OUTER JOIN", operator.or_
    CROSS = "cross", False, False, True, False, "CROSS JOIN", operator.and_
    SEMI = "semi", False, False, False, True, "EXISTS", operator.and_
    ANTI = ("anti", False, False, False, True, "NOT EXISTS",
            lambda accumulated, table: accumulated & ~table)

    def __new__(cls, value: str, *semantics: Any) -> JoinType:
        member = object.__new__(cls)
        member._value_ = value
        (member.pads_left, member.pads_right, member.exposes_right_columns,
         member.keyed, member.keyword, member.kept_rows) = semantics
        return member

    @property
    def is_outer(self) -> bool:
        """True when the join pads either side: left/right/full outer joins."""
        return self.pads_left or self.pads_right

    @property
    def filters_by_existence(self) -> bool:
        """True when the join only filters by whether a match exists (SEMI, ANTI)."""
        return not self.exposes_right_columns


class AggregateFunction(enum.Enum):
    """Aggregates supported in the SELECT list (node 8 of Figure 5)."""

    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"


@dataclass(frozen=True)
class TableRef:
    """A table with its alias as used in the FROM clause."""

    table: str
    alias: str


@dataclass(frozen=True)
class JoinStep:
    """One step of the left-deep join chain.

    ``left_key`` always references a column of a table already in the chain and
    ``right_key`` a column of :attr:`table`; for CROSS joins both are ``None``.
    ``extra_condition`` carries any non-equi residual predicate.
    """

    table: TableRef
    join_type: JoinType
    left_key: Optional[ColumnRef] = None
    right_key: Optional[ColumnRef] = None
    extra_condition: Optional[Expression] = None

    def __post_init__(self) -> None:
        if self.join_type.keyed:
            if self.left_key is None or self.right_key is None:
                raise PlanError(
                    f"{self.join_type.value} join on {self.table.table} "
                    "requires both join keys"
                )


@dataclass(frozen=True)
class SelectItem:
    """One projected expression with an optional output alias and aggregate."""

    expression: Expression
    alias: Optional[str] = None
    aggregate: Optional[AggregateFunction] = None

    def output_name(self, position: int) -> str:
        """Column name of this item in the result set."""
        if self.alias:
            return self.alias
        if self.aggregate is not None:
            return f"{self.aggregate.value.lower()}_{position}"
        expr = self.expression
        if isinstance(expr, ColumnRef):
            return expr.column
        return f"expr_{position}"


def unique_output_names(items: Sequence[SelectItem]) -> List[str]:
    """Result-set column names for a select list, disambiguating duplicates.

    Two select items may share an output name — ``T1.userId`` and ``T4.userId``
    both surface as ``userId``.  Row dicts keyed by duplicate names silently
    collapse columns (every duplicate reads the last item's value), so later
    duplicates get a positional suffix, the way real engines disambiguate
    repeated output columns.
    """
    names: List[str] = []
    seen = set()
    for position, item in enumerate(items):
        name = item.output_name(position)
        if name in seen:
            name = f"{name}_{position}"
            while name in seen:
                name += "_"
        seen.add(name)
        names.append(name)
    return names


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item.

    NULL placement is part of the ordering semantics, not a rendering nicety:
    :func:`~repro.sqlvalue.values.value_sort_key`, the one exact value order
    the reference executor sorts by, puts NULL below every non-NULL value,
    i.e. NULLS FIRST ascending and NULLS LAST descending.  SQLite and MySQL default to exactly that, but
    DuckDB and Postgres default to NULLS LAST on ASC — so the placement is
    always spelled out, per dialect capability, by
    :class:`~repro.plan.sqlrender.SQLRenderer`.
    """

    expression: Expression
    descending: bool = False

    def nulls_placement(self) -> str:
        """The explicit NULL placement matching the reference sort order."""
        return "NULLS LAST" if self.descending else "NULLS FIRST"


@dataclass
class QuerySpec:
    """A logical multi-table join query."""

    base: TableRef
    joins: List[JoinStep] = field(default_factory=list)
    select: List[SelectItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    distinct: bool = True
    limit: Optional[int] = None

    @property
    def table_refs(self) -> List[TableRef]:
        """All tables in FROM order (base first)."""
        return [self.base] + [step.table for step in self.joins]

    @property
    def aliases(self) -> List[str]:
        """All table aliases in FROM order."""
        return [ref.alias for ref in self.table_refs]

    @property
    def tables(self) -> List[str]:
        """All underlying table names in FROM order."""
        return [ref.table for ref in self.table_refs]

    @property
    def join_types(self) -> List[JoinType]:
        """Join types in chain order."""
        return [step.join_type for step in self.joins]

    def alias_of(self, table: str) -> str:
        """Alias used for *table* (first occurrence)."""
        for ref in self.table_refs:
            if ref.table == table:
                return ref.alias
        raise PlanError(f"query does not reference table {table!r}")

    def has_aggregates(self) -> bool:
        """True when any select item is aggregated."""
        return any(item.aggregate is not None for item in self.select)

    def output_columns(self) -> List[str]:
        """Result-set column names (duplicates disambiguated positionally)."""
        return unique_output_names(self.select)

    def validate(self) -> None:
        """Sanity-check the query structure (raises :class:`PlanError`)."""
        seen_aliases = set()
        for ref in self.table_refs:
            if ref.alias in seen_aliases:
                raise PlanError(f"duplicate alias {ref.alias!r} in query")
            seen_aliases.add(ref.alias)
        if not self.select:
            raise PlanError("query must project at least one column")
        available = set()
        for index, ref in enumerate(self.table_refs):
            available.add(ref.alias)
            if index == 0:
                continue
            step = self.joins[index - 1]
            if not step.join_type.keyed:
                continue
            if step.left_key.table not in available - {ref.alias}:
                raise PlanError(
                    f"join step {index} left key "
                    f"{step.left_key.table}.{step.left_key.column} does not "
                    "reference an already-joined table"
                )
            if step.right_key.table != ref.alias:
                raise PlanError(
                    f"join step {index} right key "
                    f"{step.right_key.table}.{step.right_key.column} must "
                    f"reference the joined table alias {ref.alias!r}"
                )


class SetOperator(enum.Enum):
    """SQL set operators combining compound-query arms."""

    UNION = "UNION"
    UNION_ALL = "UNION ALL"
    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"

    @property
    def preserves_duplicates(self) -> bool:
        """True for the one operator whose result is a multiset."""
        return self is SetOperator.UNION_ALL


@dataclass
class CompoundQuerySpec:
    """A set-operation query over compatible :class:`QuerySpec` arms.

    ``arms`` are combined left-to-right with the operators in ``operators``
    (``len(operators) == len(arms) - 1``).  All operators of one compound must
    be identical: INTERSECT binds tighter than UNION/EXCEPT in standard SQL
    while this IR (and several engines' renderings) evaluate left-to-right,
    and SQLite rejects parenthesized compound operands — a uniform operator
    chain is the fragment every dialect agrees on.

    ``cte_name`` optionally wraps the compound body in a common table
    expression: ``WITH name AS (<body>) SELECT <columns> FROM name``.  The
    outer select is a pass-through projection (same columns, no DISTINCT), so
    reference execution simply inlines the body while real engines exercise
    their CTE machinery (materialization vs inlining).  A single arm with no
    operators and a ``cte_name`` is a plain CTE query.

    Output column names, like real engines', come from the first arm.
    """

    arms: List[QuerySpec]
    operators: List[SetOperator] = field(default_factory=list)
    cte_name: Optional[str] = None
    # Interface parity with QuerySpec (the oracle precheck reads it); the
    # generator never sets a compound-level LIMIT because without a total
    # order the selected subset is engine-defined.
    limit: Optional[int] = None

    @property
    def base(self) -> TableRef:
        """The first arm's base table (representative, for KQE skeletons)."""
        return self.arms[0].base

    @property
    def joins(self) -> List[JoinStep]:
        """The first arm's join chain (representative, for KQE skeletons)."""
        return self.arms[0].joins

    @property
    def table_refs(self) -> List[TableRef]:
        """All table references across all arms (may repeat aliases)."""
        return [ref for arm in self.arms for ref in arm.table_refs]

    def has_aggregates(self) -> bool:
        """True when any arm aggregates."""
        return any(arm.has_aggregates() for arm in self.arms)

    def preserves_duplicates(self) -> bool:
        """True when the combined result is a multiset (any UNION ALL)."""
        return any(op.preserves_duplicates for op in self.operators)

    def output_columns(self) -> List[str]:
        """Result-set column names (the first arm's, like real engines)."""
        return self.arms[0].output_columns()

    def validate(self) -> None:
        """Sanity-check the compound structure (raises :class:`PlanError`)."""
        if not self.arms:
            raise PlanError("compound query must have at least one arm")
        if len(self.operators) != len(self.arms) - 1:
            raise PlanError(
                f"compound query with {len(self.arms)} arms needs "
                f"{len(self.arms) - 1} operators, got {len(self.operators)}"
            )
        if len(self.arms) == 1 and self.cte_name is None:
            raise PlanError("single-arm compound query requires a cte_name")
        if len({op for op in self.operators}) > 1:
            raise PlanError(
                "compound query must use one operator throughout; mixed "
                "UNION/INTERSECT/EXCEPT precedence is dialect-dependent"
            )
        arity = len(self.arms[0].select)
        for index, arm in enumerate(self.arms):
            arm.validate()
            if len(arm.select) != arity:
                raise PlanError(
                    f"compound arm {index} projects {len(arm.select)} columns, "
                    f"expected {arity}"
                )
            if arm.order_by or arm.limit is not None:
                raise PlanError(
                    f"compound arm {index} must not carry ORDER BY or LIMIT"
                )
        if self.limit is not None and self.limit < 0:
            raise PlanError("LIMIT must be non-negative")


AnyQuerySpec = Union[QuerySpec, CompoundQuerySpec]
"""A statement the executors and renderers accept: plain or compound."""


def combine_set_rows(
    arm_rows: Sequence[Sequence[Tuple[Any, ...]]],
    operators: Sequence[SetOperator],
) -> List[Tuple[Any, ...]]:
    """Fold already-executed arm results left-to-right under *operators*.

    The one shared implementation of set-operation semantics: the engine
    calls it on the results of its per-arm executions.

    Distinct-producing operators (UNION / INTERSECT / EXCEPT) deduplicate by
    :func:`~repro.sqlvalue.values.normalize_row`, keeping the first-seen
    representative in arm order — the same first-wins rule the executors'
    DISTINCT projection applies.
    """
    accumulated = list(arm_rows[0])
    for op, rows in zip(operators, arm_rows[1:]):
        if op is SetOperator.UNION_ALL:
            accumulated = accumulated + list(rows)
            continue
        if op is SetOperator.UNION:
            merged: List[Tuple[Any, ...]] = []
            seen = set()
            for row in list(accumulated) + list(rows):
                key = normalize_row(row)
                if key in seen:
                    continue
                seen.add(key)
                merged.append(row)
            accumulated = merged
            continue
        right_keys = {normalize_row(row) for row in rows}
        filtered: List[Tuple[Any, ...]] = []
        seen = set()
        for row in accumulated:
            key = normalize_row(row)
            if key in seen:
                continue
            seen.add(key)
            if (op is SetOperator.INTERSECT) == (key in right_keys):
                filtered.append(row)
        accumulated = filtered
    return accumulated
