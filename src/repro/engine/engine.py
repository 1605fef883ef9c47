"""The public engine facade: execute logical queries under hints against a database."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.dialects import DialectProfile
from repro.engine.faults import ActiveFaults
from repro.engine.resultset import ResultSet
from repro.optimizer.hints import HintSet, default_hints
from repro.optimizer.planner import Planner
from repro.plan.logical import (
    AnyQuerySpec,
    CompoundQuerySpec,
    QuerySpec,
    combine_set_rows,
)
from repro.plan.physical import ExecutionHooks, PhysicalOperator
from repro.storage.database import Database


@dataclass
class ExecutionReport:
    """Result of one query execution, with diagnostic metadata."""

    result: ResultSet
    hints: HintSet
    plan_description: str
    fired_bug_ids: Tuple[int, ...]


class Engine:
    """A simulated DBMS instance bound to one database.

    A clean engine (no dialect) behaves correctly; an engine built from a
    :class:`~repro.engine.dialects.DialectProfile` carries that dialect's seeded
    bug profile and can return incorrect result sets under the trigger
    conditions of those bugs -- exactly the behaviour TQS is designed to detect.
    """

    def __init__(
        self,
        database: Database,
        dialect: Optional[DialectProfile] = None,
        hooks: Optional[ExecutionHooks] = None,
    ) -> None:
        self.database = database
        self.dialect = dialect
        if hooks is not None:
            self.hooks = hooks
        elif dialect is not None:
            self.hooks = dialect.active_faults()
        else:
            self.hooks = ExecutionHooks()
        self.planner = Planner(database, self.hooks)
        self.queries_executed = 0

    # ------------------------------------------------------------------ naming

    @property
    def name(self) -> str:
        """Engine display name."""
        if self.dialect is None:
            return "ReferenceEngine"
        return f"{self.dialect.name} {self.dialect.version}"

    # --------------------------------------------------------------- execution

    def plan(self, query: QuerySpec, hints: Optional[HintSet] = None) -> PhysicalOperator:
        """Build the physical plan without executing it (EXPLAIN)."""
        return self.planner.plan(query, hints or default_hints())

    def explain(self, query: QuerySpec, hints: Optional[HintSet] = None) -> str:
        """Return a textual plan description."""
        return self.plan(query, hints).explain()

    def execute(self, query: AnyQuerySpec, hints: Optional[HintSet] = None) -> ResultSet:
        """Execute *query* under *hints* and return its result set."""
        return self.execute_with_report(query, hints).result

    def _execute_compound(
        self, query: CompoundQuerySpec, hints: Optional[HintSet]
    ) -> ExecutionReport:
        """Execute a set-operation query by folding its arm results.

        Each arm runs through the normal (row) path — under the same hints
        and fault hooks — and the shared :func:`combine_set_rows` fold merges
        the arm outputs.  A ``cte_name`` wrapper is inlined: the outer CTE
        projection is a pass-through, so the body's result *is* the result.
        """
        query.validate()
        reports = [self.execute_with_report(arm, hints) for arm in query.arms]
        rows = combine_set_rows([report.result.rows for report in reports],
                                query.operators)
        if query.limit is not None:
            rows = rows[: query.limit]
        fired: Tuple[int, ...] = tuple(sorted(
            {bug for report in reports for bug in report.fired_bug_ids}
        ))
        plan = "\n".join(
            part
            for report, op in zip(reports, list(query.operators) + [None])
            for part in ([report.plan_description] +
                         ([op.render()] if op is not None else []))
        )
        return ExecutionReport(
            result=ResultSet(query.output_columns(), rows),
            hints=reports[0].hints,
            plan_description=plan,
            fired_bug_ids=fired,
        )

    def execute_with_report(
        self, query: AnyQuerySpec, hints: Optional[HintSet] = None
    ) -> ExecutionReport:
        """Execute and also report the plan and which seeded bugs fired."""
        if isinstance(query, CompoundQuerySpec):
            return self._execute_compound(query, hints)
        hints = hints or default_hints()
        if isinstance(self.hooks, ActiveFaults):
            self.hooks.reset_fired()
        operator = self.planner.plan(query, hints)
        rows = list(operator.rows())
        self.queries_executed += 1
        fired: Tuple[int, ...] = ()
        if isinstance(self.hooks, ActiveFaults):
            fired = tuple(sorted(self.hooks.fired))
        return ExecutionReport(
            result=ResultSet(operator.output_columns(), rows),
            hints=hints,
            plan_description=operator.explain(),
            fired_bug_ids=fired,
        )

    def execute_all_hints(
        self, query: QuerySpec, hint_sets: Sequence[HintSet]
    ) -> List[ExecutionReport]:
        """Execute the same logical query under every hint set (the trans_q step)."""
        return [self.execute_with_report(query, hints) for hints in hint_sets]


def reference_engine(database: Database) -> Engine:
    """A bug-free engine over *database* (used by tests and the NoRec baseline)."""
    return Engine(database, dialect=None, hooks=ExecutionHooks())
