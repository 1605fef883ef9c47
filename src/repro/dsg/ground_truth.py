"""Ground-truth result recovery from the wide table (paper §3.4, Table 2).

Given a join query generated on the normalized schema, the oracle combines the
per-table join bitmaps according to the join types of the chain, retrieves the
matching wide-table rows, and re-applies the query's filters, projections and
DISTINCT using the very same operator implementations the engines use -- so any
disagreement between an engine and the oracle is attributable to the engine's
join execution, not to divergent expression semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.dsg.bitmap import Bitmap
from repro.dsg.normalization import NormalizedDatabase
from repro.engine.resultset import ResultSet
from repro.plan.logical import QuerySpec
from repro.plan.operators import Filter, Project
from repro.plan.physical import ExecRow, PhysicalOperator
from repro.sqlvalue.values import NULL


class VerificationMode(enum.Enum):
    """How the engine result must relate to the ground truth (Table 2)."""

    FULL_SET = "full_set"
    SUBSET = "subset"


@dataclass
class GroundTruth:
    """The oracle's answer for one query."""

    result: ResultSet
    mode: VerificationMode
    wide_row_ids: List[int]

    def matches(self, observed: ResultSet) -> bool:
        """Check an engine result set against the ground truth."""
        if self.mode is VerificationMode.FULL_SET:
            return observed.normalized() == self.result.normalized()
        return self.result.normalized() <= observed.normalized()


class _StaticRows(PhysicalOperator):
    """A physical operator replaying pre-built rows (the selected wide rows)."""

    def __init__(self, rows: List[ExecRow], columns: List[str]) -> None:
        self._rows = rows
        self._columns = columns

    def rows(self) -> Iterator[ExecRow]:
        return iter(self._rows)

    def output_columns(self) -> List[str]:
        return list(self._columns)

    def describe(self) -> str:
        return f"WideTableRows({len(self._rows)})"


class GroundTruthOracle:
    """Recovers ground-truth result sets for DSG-generated queries."""

    def __init__(self, ndb: NormalizedDatabase) -> None:
        self.ndb = ndb

    # ------------------------------------------------------------------ bitmaps

    def join_bitmap(self, query: QuerySpec) -> Bitmap:
        """Combine per-table bitmaps along the join chain (Table 2 + Eq. 1).

        Each step applies its join type's declared
        :attr:`~repro.plan.logical.JoinType.kept_rows` to the bitmap of the
        chain so far and the bitmap of the joined table.
        """
        bitmap_index = self.ndb.bitmap
        bits = bitmap_index.bitmap(query.base.table).copy()
        for step in query.joins:
            bits = step.join_type.kept_rows(bits, bitmap_index.bitmap(step.table.table))
        return bits

    # ------------------------------------------------------------------- oracle

    def _wide_exec_rows(
        self, query: QuerySpec, row_ids: Sequence[int]
    ) -> Tuple[List[str], List[ExecRow]]:
        """The layout (sorted ``alias.column`` names) and rows of *row_ids*."""
        slots = sorted(
            (f"{ref.alias}.{column}", ref.table, column)
            for ref in query.table_refs
            for column in self.ndb.data_columns(ref.table)
        )
        tables = sorted({table for _, table, _ in slots})
        rows: List[ExecRow] = []
        for row_id in row_ids:
            wide_row = self.ndb.wide.row(row_id)
            # When the wide row does not map to a table (its bit is 0), the
            # engine sees that table's columns as the NULL padding of an
            # outer join -- mirror that here, otherwise the child's copy of
            # a corrupted key would leak into the parent alias.
            mapped = {
                table: self.ndb.rowid_map.get(row_id, table) is not None
                for table in tables
            }
            rows.append(tuple(
                wide_row[column] if mapped[table] else NULL
                for _, table, column in slots
            ))
        return [name for name, _, _ in slots], rows

    def compute(self, query: QuerySpec) -> GroundTruth:
        """Compute the ground truth of one generated query."""
        bits = self.join_bitmap(query)
        row_ids = bits.indices()
        columns, exec_rows = self._wide_exec_rows(query, row_ids)
        operator: PhysicalOperator = _StaticRows(exec_rows, columns)
        if query.where is not None:
            operator = Filter(operator, query.where)
        operator = Project(
            operator,
            query.select,
            group_by=query.group_by,
            distinct=query.distinct,
        )
        result_rows = list(operator.rows())
        # A keyless join is a cartesian product, which the wide table holds
        # only in part.
        mode = (
            VerificationMode.SUBSET
            if any(not step.join_type.keyed for step in query.joins)
            else VerificationMode.FULL_SET
        )
        return GroundTruth(ResultSet(operator.output_columns(), result_rows), mode,
                           row_ids)
