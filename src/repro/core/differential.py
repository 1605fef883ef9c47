"""Differential oracle: reference executor vs an external backend.

The simulated campaigns verify engine results against the wide-table ground
truth.  When the target is a *real* engine (SQLite today; DuckDB / MySQL /
Postgres adapters later), the reference executor plays the role SQLancer's
baselines give to a second implementation: every TQS-generated query runs on
both sides and the two results are judged by
:func:`~repro.engine.resultset.agree`.  :func:`preserves_duplicates` picks the
relation per query shape: set equality for DISTINCT projections and
aggregates, bag equality where duplicates are part of the answer (UNION ALL
compounds).  The comparison is ``tolerant``, so representation drift such as
the reference's exact ``Decimal`` against a backend's ``REAL`` is not a
mismatch.  Any disagreement is filed through the existing
:class:`~repro.core.bug_report.BugLog`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.backends.base import BackendAdapter, BackendExecution
from repro.core.bug_report import BugIncident, BugLog
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine
from repro.engine.resultset import Relation, ResultSet, agree
from repro.errors import BackendError, GenerationError, RenderError
from repro.kqe.explorer import KQE
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraphBuilder
from repro.plan.logical import AnyQuerySpec, CompoundQuerySpec
from repro.plan.sqlrender import SQLRenderer


@dataclass
class DifferentialConfig:
    """Knobs of a differential campaign."""

    use_kqe: bool = True
    max_generation_retries: int = 5
    seed: int = 97


def preserves_duplicates(query: AnyQuerySpec) -> bool:
    """Whether *query*'s result is a multiset, selecting the compared relation.

    DISTINCT projections and aggregates produce sets; a compound with UNION
    ALL (or a plain non-DISTINCT, non-aggregated projection) can legitimately
    emit duplicate rows, where the multiplicity itself is part of the answer
    — two engines returning ``[1, 1]`` vs ``[1]`` disagree.
    """
    if isinstance(query, CompoundQuerySpec):
        return query.preserves_duplicates()
    return not query.distinct and not query.has_aggregates()


@dataclass
class DifferentialOutcome:
    """What one differential iteration observed."""

    query: AnyQuerySpec
    canonical_label: str
    sql: str
    matched: bool
    skipped: bool = False
    skip_reason: str = ""
    incident: Optional[BugIncident] = None
    reference_rows: int = 0
    observed_rows: int = 0

    @property
    def detected(self) -> bool:
        """True when the backend disagreed with the reference executor."""
        return not self.matched and not self.skipped


class DifferentialOracle:
    """Compares one backend against the bug-free reference executor."""

    def __init__(self, reference: Engine, backend: BackendAdapter,
                 bug_log: Optional[BugLog] = None,
                 config: Optional[DifferentialConfig] = None) -> None:
        self.reference = reference
        self.backend = backend
        self.bug_log = bug_log if bug_log is not None else BugLog()
        self.config = config or DifferentialConfig()
        self.comparisons = 0
        self.skipped = 0

    def _skip(self, query: AnyQuerySpec, label: str,
              reason: str) -> DifferentialOutcome:
        self.skipped += 1
        return DifferentialOutcome(
            query=query, canonical_label=label, sql="", matched=True,
            skipped=True, skip_reason=reason,
        )

    def check(self, query: AnyQuerySpec, label: str = "") -> DifferentialOutcome:
        """Run *query* on the target, then on the reference, and :meth:`judge`.

        A mismatch is filed in :attr:`bug_log`.  A query the dialect cannot
        express (RenderError) or the engine rejects at runtime (BackendError)
        is skipped, not filed: it is not a *logic* bug, and skipping keeps one
        unsupported construct from aborting a long campaign.
        """
        if query.limit is not None:
            # LIMIT without a total order picks an engine-chosen subset; two
            # correct engines may legitimately disagree, so it is incomparable.
            return self._skip(query, label, "LIMIT result is engine-defined")
        try:
            execution: BackendExecution = self.backend.execute(query)
        except (RenderError, BackendError) as error:
            obs.get_registry().counter(
                "execute.errors",
                backend=self.backend.name,
                kind=type(error).__name__,
            ).inc()
            return self._skip(query, label, str(error))
        with obs.span("execute.reference"):
            reference_result = self.reference.execute(query)
        return self.judge(query, label, execution, reference_result)

    def judge(self, query: AnyQuerySpec, label: str,
              execution: BackendExecution,
              reference_result: ResultSet) -> DifferentialOutcome:
        """Compare one (execution, reference result) pair into a verdict."""
        self.comparisons += 1
        with obs.span("judge"):
            relation = (Relation.BAG_EQUAL if preserves_duplicates(query)
                        else Relation.SET_EQUAL)
            matched = agree(reference_result, execution.result, relation,
                            tolerant=True)
        outcome = DifferentialOutcome(
            query=query,
            canonical_label=label,
            sql=execution.sql,
            matched=matched,
            reference_rows=len(reference_result),
            observed_rows=len(execution.result),
        )
        if not matched:
            incident = BugIncident(
                dbms=self.backend.name,
                query_sql=execution.sql or SQLRenderer().query(query),
                hint_name="default",
                detection_mode="backend_differential",
                query_canonical_label=label,
                fired_bug_ids=execution.fired_bug_ids,
                expected_rows=len(reference_result),
                observed_rows=len(execution.result),
            )
            self.bug_log.record(incident)
            outcome.incident = incident
        return outcome


class DifferentialTester:
    """The TQS loop re-targeted at a backend: generate, render, execute, compare.

    Mirrors :class:`~repro.core.tqs.TQS` (generation retries, KQE guidance,
    diversity accounting) but replaces the wide-table ground-truth verification
    with the differential oracle.  One instance drives one backend over one
    DSG-generated database.
    """

    def __init__(self, dsg: DSG, backend: BackendAdapter,
                 reference: Optional[Engine] = None,
                 config: Optional[DifferentialConfig] = None) -> None:
        self.dsg = dsg
        self.backend = backend
        self.config = config or DifferentialConfig()
        self.reference = reference or Engine(dsg.database)
        self.oracle = DifferentialOracle(self.reference, backend,
                                         config=self.config)
        self.kqe = (
            KQE(dsg.ndb.schema, rng=random.Random(self.config.seed + 1))
            if self.config.use_kqe else None
        )
        self.graph_builder = QueryGraphBuilder(dsg.ndb.schema)
        self.diversity = IsomorphicSetCounter()
        self.queries_generated = 0
        self.outcomes: List[DifferentialOutcome] = []
        self._closed = False

    @property
    def bug_log(self) -> BugLog:
        """The accumulated mismatch log."""
        return self.oracle.bug_log

    @property
    def queries_executed(self) -> int:
        """Number of cross-engine comparisons performed."""
        return self.oracle.comparisons

    @property
    def explored_isomorphic_sets(self) -> int:
        """Distinct query-graph isomorphism classes generated so far."""
        return self.diversity.distinct_sets

    def _generate(self) -> AnyQuerySpec:
        chooser = self.kqe.extension_chooser if self.kqe is not None else None
        last_error: Optional[Exception] = None
        for _ in range(self.config.max_generation_retries):
            try:
                return self.dsg.generate_statement(extension_chooser=chooser)
            except GenerationError as error:
                last_error = error
        raise GenerationError(f"query generation kept failing: {last_error}")

    def run_iteration(self) -> DifferentialOutcome:
        """Generate one query and compare the backend against the reference."""
        with obs.span("generate"):
            query = self._generate()
            self.queries_generated += 1
            label = self.graph_builder.build(query).canonical_label()
            self.diversity.add_label(label)
            if self.kqe is not None:
                self.kqe.register(query)
        outcome = self.oracle.check(query, label)
        self.outcomes.append(outcome)
        return outcome

    def close(self) -> None:
        """Close the backend.

        Safe to call twice; every campaign/worker error path funnels through
        here so adapters are never leaked.
        """
        if self._closed:
            return
        self._closed = True
        self.backend.close()

    def run(self, iterations: int) -> BugLog:
        """Run several iterations, skipping failed generations."""
        for _ in range(iterations):
            try:
                self.run_iteration()
            except GenerationError:
                continue
        return self.bug_log
