"""TLP baseline: Ternary Logic Partitioning adapted to multi-table joins.

TLP (Rigger & Su, OOPSLA'20) rewrites a query ``Q`` into the three partitions
``Q WHERE p``, ``Q WHERE NOT p`` and ``Q WHERE p IS NULL`` and checks that their
union equals ``Q``.  Any predicate-insensitive logic bug corrupts all four
queries identically and stays invisible, which is the structural reason TLP
detects far fewer join-optimization bugs than TQS in Figure 8.
"""

from __future__ import annotations

from typing import List

from repro.baselines.base import BaselineTester
from repro.engine.resultset import Relation, ResultSet, agree
from repro.errors import GenerationError
from repro.expr.ast import And, Expression, IsNull, Not
from repro.plan.logical import JoinType, QuerySpec


class TLPTester(BaselineTester):
    """Ternary Logic Partitioning over multi-table join queries."""

    name = "TLP"

    def _partitions(self, query: QuerySpec, predicate: Expression) -> List[QuerySpec]:
        partitions = []
        for clause in (predicate, Not(predicate), IsNull(predicate)):
            where = clause if query.where is None else And(query.where, clause)
            partitions.append(
                QuerySpec(
                    base=query.base,
                    joins=list(query.joins),
                    select=list(query.select),
                    where=where,
                    group_by=list(query.group_by),
                    distinct=query.distinct,
                )
            )
        return partitions

    def run_iteration(self) -> None:
        assert self.dsg is not None and self.engine is not None
        try:
            query = self.random_join_query(
                max_joins=3,
                join_types=(JoinType.INNER, JoinType.LEFT_OUTER),
                project_all_aliases=True,
            )
        except GenerationError:
            return
        predicate = self.random_predicate(query)
        if predicate is None:
            return
        label = self.record_query(query)
        full_report = self.engine.execute_with_report(query)
        self.queries_executed += 1
        partition_reports = []
        for partition in self._partitions(query, predicate):
            partition_reports.append(self.engine.execute_with_report(partition))
            self.queries_executed += 1
        union = ResultSet(
            full_report.result.columns,
            (row for report in partition_reports for row in report.result.rows),
        )
        if not agree(full_report.result, union, Relation.SET_EQUAL):
            # Attribute the incident to whichever execution fired seeded faults.
            blamed = max(
                partition_reports + [full_report],
                key=lambda report: len(report.fired_bug_ids),
            )
            self.record_incident(query, label, blamed,
                                 expected_rows=len(full_report.result),
                                 mode="tlp_partition")
