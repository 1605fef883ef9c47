"""NoRec baseline: Non-optimizing Reference Engine Construction for joins.

NoRec (Rigger & Su, ESEC/FSE'20) runs each query twice: once so the DBMS can
optimize it freely and once rewritten so no optimization applies, then compares
the two results.  For join queries the natural non-optimizing reference is the
plain nested-loop execution with every optimizer switch disabled; bugs that
corrupt both executions identically remain invisible, which is exactly the
weakness the ground-truth oracle of TQS removes.
"""

from __future__ import annotations

from repro.baselines.base import BaselineTester
from repro.engine.resultset import Relation, agree
from repro.errors import GenerationError
from repro.optimizer.hints import nested_loop_hints, no_materialization_hints, no_semijoin_hints
from repro.plan.logical import JoinType


def _reference_hints():
    """The non-optimizing reference plan: plain nested loops, all rewrites off."""
    hints = nested_loop_hints()
    hints = no_materialization_hints(hints)
    hints = no_semijoin_hints(hints)
    return hints


class NoRecTester(BaselineTester):
    """Non-optimizing reference comparison over multi-table join queries."""

    name = "NoRec"

    def run_iteration(self) -> None:
        assert self.dsg is not None and self.engine is not None
        try:
            query = self.random_join_query(
                max_joins=3,
                join_types=(JoinType.INNER, JoinType.LEFT_OUTER, JoinType.RIGHT_OUTER),
                project_all_aliases=True,
            )
        except GenerationError:
            return
        predicate = self.random_predicate(query)
        if predicate is not None and self.rng.random() < 0.5:
            query.where = predicate
        label = self.record_query(query)
        optimized = self.engine.execute_with_report(query)
        reference = self.engine.execute_with_report(query, _reference_hints())
        self.queries_executed += 2
        if not agree(reference.result, optimized.result, Relation.SET_EQUAL):
            blamed = optimized if optimized.fired_bug_ids else reference
            self.record_incident(query, label, blamed,
                                 expected_rows=len(reference.result),
                                 mode="norec_reference")
