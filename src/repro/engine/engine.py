"""The public engine facade: execute logical queries under hints against a database."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine.dialects import DialectProfile
from repro.engine.faults import ActiveFaults
from repro.engine.resultset import ResultSet
from repro.optimizer.hints import HintSet, default_hints
from repro.errors import PlanError
from repro.optimizer.planner import Planner, PreparedQuery
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
    """Result of one query execution, with diagnostic metadata.

    ``plan_description`` is the executed plan's EXPLAIN text, rendered by
    *render_plan* on first read: the testing loop never reads it, bug
    reports and tests do.
    """

    result: ResultSet
    hints: HintSet
    fired_bug_ids: Tuple[int, ...]
    render_plan: Callable[[], str] = field(repr=False)
    _plan_description: Optional[str] = field(default=None, init=False, repr=False)

    @property
    def plan_description(self) -> str:
        """The executed plan as EXPLAIN text."""
        if self._plan_description is None:
            self._plan_description = self.render_plan()
        return self._plan_description


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

        def render_plan() -> str:
            return "\n".join(
                part
                for report, op in zip(reports, list(query.operators) + [None])
                for part in ([report.plan_description] +
                             ([op.value] if op is not None else []))
            )

        return ExecutionReport(
            result=ResultSet(query.output_columns(), rows),
            hints=reports[0].hints,
            fired_bug_ids=fired,
            render_plan=render_plan,
        )

    def execute_with_report(
        self, query: Union[AnyQuerySpec, PreparedQuery],
        hints: Optional[HintSet] = None,
    ) -> ExecutionReport:
        """Execute and also report the plan and which seeded bugs fired.

        *query* may be this engine's :meth:`Planner.prepare` of a join query,
        which then plans under *hints* without redoing its query-only work.
        It executes once per distinct :meth:`~PreparedQuery.execution_key`,
        computed before any join decision: only a hint set whose key has not
        executed yet is decided, built and run.  A later hint set with that
        key gets the execution's result and fired bug ids, and its plan is
        built only if its text is read.
        """
        if isinstance(query, CompoundQuerySpec):
            return self._execute_compound(query, hints)
        hints = hints or default_hints()
        self.queries_executed += 1
        if not isinstance(query, PreparedQuery):
            return self._run(self.planner.plan(query, hints), hints)
        if query.planner is not self.planner:
            raise PlanError("the query was prepared by another engine's planner")
        key = query.execution_key(hints)
        shared = query.executions.get(key)
        if shared is None:
            report = self._run(query.plan(hints), hints)
            query.executions[key] = (report.result, report.fired_bug_ids)
            return report
        result, fired = shared
        return ExecutionReport(
            result=result,
            hints=hints,
            fired_bug_ids=fired,
            render_plan=lambda: query.plan(hints).explain(),
        )

    def _run(self, operator: PhysicalOperator, hints: HintSet) -> ExecutionReport:
        """Execute the plan *operator*, recording the seeded bugs it fires."""
        if isinstance(self.hooks, ActiveFaults):
            self.hooks.reset_fired()
        rows = list(operator.rows())
        fired: Tuple[int, ...] = ()
        if isinstance(self.hooks, ActiveFaults):
            fired = tuple(sorted(self.hooks.fired))
        return ExecutionReport(
            result=ResultSet(operator.output_columns(), rows),
            hints=hints,
            fired_bug_ids=fired,
            render_plan=operator.explain,
        )

    def execute_all_hints(
        self, query: AnyQuerySpec, hint_sets: Sequence[HintSet]
    ) -> List[ExecutionReport]:
        """Execute the same logical query under every hint set (the trans_q step).

        A join query is prepared once, so hint sets whose plans execute alike
        share one execution (see :meth:`execute_with_report`); every hint
        set still gets its own report.  A compound query plans its arms per
        hint set.  The ``engine.shared_executions`` counter counts the hint
        sets answered from an earlier hint set's execution.
        """
        if not isinstance(query, QuerySpec):
            return [self.execute_with_report(query, hints) for hints in hint_sets]
        prepared = self.planner.prepare(query)
        reports = [self.execute_with_report(prepared, hints) for hints in hint_sets]
        shared = len(reports) - len(prepared.executions)
        if shared:
            obs.get_registry().counter("engine.shared_executions").inc(shared)
        return reports


def reference_engine(database: Database) -> Engine:
    """A bug-free engine over *database* (used by tests and the NoRec baseline)."""
    return Engine(database, dialect=None, hooks=ExecutionHooks())
