"""PQS baseline: Pivoted Query Synthesis adapted to multi-table joins.

PQS picks a pivot row, synthesizes a query whose predicates are satisfied by that
pivot, and flags a bug when the pivot row is missing from the result (Rigger &
Su, OSDI'20).  The multi-table adaptation picks the pivot from the base table of
a random FK join chain and requires the pivot's projected values to appear in the
join result.  Like the original, it only exercises the default physical plan and
only notices missing-row symptoms, which is why it finds far fewer join
optimization bugs than TQS (Figure 8).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.base import BaselineTester
from repro.errors import GenerationError
from repro.expr.ast import ColumnRef, Comparison, IsNull, Literal, conjoin
from repro.plan.logical import JoinType, QuerySpec, SelectItem
from repro.sqlvalue.values import is_null, normalize_row


class PQSTester(BaselineTester):
    """Pivoted Query Synthesis over multi-table join queries."""

    name = "PQS"

    def _pivot_predicates(self, query: QuerySpec, pivot_row: dict) -> List:
        predicates = []
        base_alias = query.base.alias
        assert self.dsg is not None
        for column in self.dsg.ndb.data_columns(query.base.table):
            value = pivot_row[column]
            ref = ColumnRef(base_alias, column)
            if is_null(value):
                predicates.append(IsNull(ref))
            else:
                predicates.append(Comparison("=", ref, Literal(value)))
            if len(predicates) >= 2:
                break
        return predicates

    def run_iteration(self) -> None:
        assert self.dsg is not None and self.engine is not None
        try:
            query = self.random_join_query(
                max_joins=2, join_types=(JoinType.INNER, JoinType.LEFT_OUTER)
            )
        except GenerationError:
            return
        base_table = query.base.table
        storage = self.dsg.ndb.database.table(base_table)
        if len(storage) == 0:
            return
        pivot_row = self.rng.choice(storage.rows)
        # Project base-table columns so the pivot is recognizable in the output,
        # and pin the pivot with equality predicates on the base table.
        select = [
            SelectItem(ColumnRef(query.base.alias, column))
            for column in list(self.dsg.ndb.data_columns(base_table))[:3]
        ]
        query.select = select
        query.where = conjoin(self._pivot_predicates(query, pivot_row))
        # PQS only verifies containment when the pivot is guaranteed to survive
        # the join: left outer joins always preserve it; for inner joins we
        # require the pivot's join keys to have matches.
        label = self.record_query(query)
        report = self.engine.execute_with_report(query)
        self.queries_executed += 1
        expected = normalize_row(
            tuple(pivot_row[item.expression.column] for item in select)
        )
        preserved = all(
            self._pivot_preserved(query, step, pivot_row) for step in query.joins
        )
        if not preserved:
            return
        if expected not in report.result.normalized():
            self.record_incident(query, label, report,
                                 expected_rows=1, mode="pivot_containment")

    def _pivot_preserved(self, query: QuerySpec, step, pivot_row: dict) -> Optional[bool]:
        """Whether the pivot row must survive *step* (None-ish steps count as kept)."""
        assert self.dsg is not None
        if step.join_type.pads_right:
            # Outer joins padding the new table keep every row, pivot included.
            return True
        if step.left_key is None:
            return True
        if step.left_key.table != query.base.alias:
            # The anchor is not the pivot's table: PQS cannot reason about the
            # match, so it conservatively skips verification of this query.
            return False
        value = pivot_row.get(step.left_key.column)
        if is_null(value):
            return False
        matches = self.dsg.ndb.database.table(step.table.table).find_rows(
            step.right_key.column, value
        )
        return bool(matches)
