"""Differential oracle: reference executor vs an external backend.

The simulated campaigns verify engine results against the wide-table ground
truth.  When the target is a *real* engine (SQLite today; DuckDB / MySQL /
Postgres adapters later), the reference executor plays the role SQLancer's
baselines give to a second implementation: every TQS-generated query runs on
both sides, the result sets are normalized (column order ignored, rows compared
as sets under canonical numeric forms, floats within tolerance), and any
disagreement is filed through the existing :class:`~repro.core.bug_report.BugLog`.

The normalization rules mirror the repo's own result-set semantics
(:meth:`~repro.engine.resultset.ResultSet.normalized` /
:meth:`~repro.engine.resultset.ResultSet.normalized_bag`): the comparison
domain is selected per query shape by :func:`preserves_duplicates` — sets for
DISTINCT projections and aggregates, multisets where duplicates are part of
the answer (UNION ALL compounds) — and
:func:`~repro.sqlvalue.comparison.values_close` absorbs representation drift
such as the reference's exact ``Decimal`` vs a backend's ``REAL``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.backends.base import BackendAdapter, BackendExecution
from repro.core.bug_report import BugIncident, BugLog
from repro.core.execpipe import ExecutionPipeline, PipelineConfig, QueryJob
from repro.core.qcache import QueryCache, dataset_fingerprint, result_cache_key
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine
from repro.engine.resultset import ResultSet
from repro.errors import BackendError, GenerationError, RenderError
from repro.kqe.explorer import KQE
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraphBuilder
from repro.plan.logical import AnyQuerySpec, CompoundQuerySpec
from repro.sqlvalue.comparison import values_close
from repro.sqlvalue.values import row_sort_key


@dataclass
class DifferentialConfig:
    """Knobs of the cross-engine comparison."""

    float_rel_tol: float = 1e-9
    float_abs_tol: float = 1e-12
    use_kqe: bool = True
    max_generation_retries: int = 5
    seed: int = 97


def preserves_duplicates(query: AnyQuerySpec) -> bool:
    """Whether *query*'s result is a multiset, selecting the comparison mode.

    DISTINCT projections and aggregates produce sets; a compound with UNION
    ALL (or a plain non-DISTINCT, non-aggregated projection) can legitimately
    emit duplicate rows, where the multiplicity itself is part of the answer
    — two engines returning ``[1, 1]`` vs ``[1]`` disagree.
    """
    if isinstance(query, CompoundQuerySpec):
        return query.preserves_duplicates()
    return not query.distinct and not query.has_aggregates()


def result_sets_match(reference: ResultSet, observed: ResultSet,
                      rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                      bag: bool = False) -> bool:
    """Order-insensitive, float-tolerant result equality.

    With ``bag=False`` (the sound mode for DISTINCT projections) rows compare
    as sets — duplicate-insensitive.  With ``bag=True`` rows compare as
    multisets: each normalized row's multiplicity must agree, which is what
    UNION ALL results require.
    """
    if bag:
        if reference.normalized_bag() == observed.normalized_bag():
            return True
        ref_sorted = sorted(reference.normalized_bag().elements(),
                            key=row_sort_key)
        obs_sorted = sorted(observed.normalized_bag().elements(),
                            key=row_sort_key)
    else:
        ref_rows = reference.normalized()
        obs_rows = observed.normalized()
        if ref_rows == obs_rows:
            return True
        ref_sorted = sorted(ref_rows, key=row_sort_key)
        obs_sorted = sorted(obs_rows, key=row_sort_key)
    # Tolerant fallback: compare the (de)duplicated rows pairwise in sorted
    # order, allowing per-cell float drift.  Rows whose sort position shifts
    # under drift larger than the tolerance are genuine mismatches anyway.
    if len(ref_sorted) != len(obs_sorted):
        return False
    for ref_row, obs_row in zip(ref_sorted, obs_sorted):
        if len(ref_row) != len(obs_row):
            return False
        for ref_value, obs_value in zip(ref_row, obs_row):
            if not values_close(ref_value, obs_value, rel_tol=rel_tol,
                                abs_tol=abs_tol):
                return False
    return True


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
                 config: Optional[DifferentialConfig] = None,
                 query_cache: Optional[QueryCache] = None) -> None:
        self.reference = reference
        self.backend = backend
        self.bug_log = bug_log if bug_log is not None else BugLog()
        self.config = config or DifferentialConfig()
        self.query_cache = query_cache
        self.comparisons = 0
        self.skipped = 0
        self._dataset_fingerprint: Optional[str] = None

    def execute_reference(self, query: AnyQuerySpec,
                          label: str = "") -> ResultSet:
        """Run *query* on the reference engine, through the result cache.

        Cache keys are content-addressed (canonical SQL + dataset
        fingerprint), so a hit returns exactly what the miss path would
        recompute — the cache-on == cache-off determinism contract.  Only the
        actual execution is timed under ``execute.reference``; that is the
        phase the cache is built to collapse.
        """
        cache = self.query_cache
        if cache is None:
            with obs.span("execute.reference"):
                return self.reference.execute(query)
        if self._dataset_fingerprint is None:
            self._dataset_fingerprint = dataset_fingerprint(
                self.reference.database
            )
        key = result_cache_key(
            label, self._dataset_fingerprint, query.render()
        )
        hit, cached = cache.get(key, "result")
        if hit:
            return cached
        with obs.span("execute.reference"):
            result = self.reference.execute(query)
        cache.put(key, result, "result")
        return result

    def precheck(self, query: AnyQuerySpec,
                 label: str = "") -> Optional[DifferentialOutcome]:
        """The pre-execution skip decision; a skip outcome or None.

        Called before any engine touches the query, in submission order, by
        both the serial path and the batched pipeline — so skip accounting is
        identical between them.
        """
        if query.limit is not None:
            # LIMIT without a total order picks an engine-chosen subset; two
            # correct engines may legitimately disagree, so it is incomparable.
            self.skipped += 1
            return DifferentialOutcome(
                query=query, canonical_label=label, sql="", matched=True,
                skipped=True, skip_reason="LIMIT result is engine-defined",
            )
        return None

    def judge(self, query: AnyQuerySpec, label: str,
              execution: BackendExecution,
              reference_result: Optional[ResultSet]) -> DifferentialOutcome:
        """Turn one (execution, reference result) pair into a verdict.

        An execution that failed (``execution.error``) is skipped, not filed:
        a query the dialect cannot express (RenderError) or the engine rejects
        at runtime (BackendError) is not a *logic* bug, and skipping keeps one
        unsupported construct from aborting a long campaign.
        """
        if execution.error is not None:
            self.skipped += 1
            obs.get_registry().counter(
                "execute.errors",
                backend=self.backend.name,
                kind=type(execution.error).__name__,
            ).inc()
            return DifferentialOutcome(
                query=query, canonical_label=label, sql="", matched=True,
                skipped=True, skip_reason=str(execution.error),
            )
        assert reference_result is not None
        self.comparisons += 1
        with obs.span("judge"):
            matched = result_sets_match(
                reference_result, execution.result,
                rel_tol=self.config.float_rel_tol,
                abs_tol=self.config.float_abs_tol,
                bag=preserves_duplicates(query),
            )
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
                query_sql=execution.sql or query.render(),
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

    def check(self, query: AnyQuerySpec, label: str = "") -> DifferentialOutcome:
        """Run *query* on both sides and record any mismatch (serial path).

        The batched pipeline runs the same three stages — :meth:`precheck`,
        execution, :meth:`judge` — with the two executions overlapped; this
        method is their strictly serial composition, so the two paths cannot
        drift apart.
        """
        skip = self.precheck(query, label)
        if skip is not None:
            return skip
        try:
            execution: BackendExecution = self.backend.execute(query)
        except (RenderError, BackendError) as error:
            return self.judge(query, label, BackendExecution(error=error), None)
        reference_result = self.execute_reference(query, label)
        return self.judge(query, label, execution, reference_result)


class DifferentialTester:
    """The TQS loop re-targeted at a backend: generate, render, execute, compare.

    Mirrors :class:`~repro.core.tqs.TQS` (generation retries, KQE guidance,
    diversity accounting) but replaces the wide-table ground-truth verification
    with the differential oracle.  One instance drives one backend over one
    DSG-generated database.

    With a :class:`~repro.core.execpipe.PipelineConfig` whose ``batch_size``
    exceeds 1, generated queries are buffered and executed through the
    overlapped :class:`~repro.core.execpipe.ExecutionPipeline` — target and
    reference concurrently — instead of one at a time.  Generation order, KQE
    registration and verdicts are bit-identical to the serial path; only the
    wall clock changes.  Callers driving a batched tester directly must call
    :meth:`flush` before reading counters (the shared campaign loop does so at
    every hour boundary).
    """

    def __init__(self, dsg: DSG, backend: BackendAdapter,
                 reference: Optional[Engine] = None,
                 config: Optional[DifferentialConfig] = None,
                 pipeline: Optional[PipelineConfig] = None,
                 query_cache: Optional[QueryCache] = None) -> None:
        self.dsg = dsg
        self.backend = backend
        self.config = config or DifferentialConfig()
        self.reference = reference or Engine(dsg.database)
        self.oracle = DifferentialOracle(
            self.reference, backend, config=self.config,
            query_cache=query_cache,
        )
        self.pipeline_config = pipeline or PipelineConfig()
        self.pipeline = (
            ExecutionPipeline(self.oracle, self.pipeline_config)
            if self.pipeline_config.batch_size > 1 else None
        )
        self.kqe = (
            KQE(dsg.ndb.schema, rng=random.Random(self.config.seed + 1))
            if self.config.use_kqe else None
        )
        self.graph_builder = QueryGraphBuilder(dsg.ndb.schema)
        self.diversity = IsomorphicSetCounter()
        self.queries_generated = 0
        self.outcomes: List[DifferentialOutcome] = []
        self._pending: List[QueryJob] = []
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

    def run_iteration(self) -> Optional[DifferentialOutcome]:
        """Generate one query and compare the backend against the reference.

        On the serial path (batch size 1) the comparison happens immediately
        and the outcome is returned.  On the batched path the query is
        buffered — executing as soon as a full batch accumulates — and the
        return value is None; outcomes land in :attr:`outcomes` (in generation
        order) when the batch flushes.
        """
        with obs.span("generate"):
            query = self._generate()
            self.queries_generated += 1
            label = self.graph_builder.build(query).canonical_label()
            self.diversity.add_label(label)
            if self.kqe is not None:
                self.kqe.register(query, label)
        if self.pipeline is None:
            outcome = self.oracle.check(query, label)
            self.outcomes.append(outcome)
            return outcome
        self._pending.append(QueryJob(query=query, label=label))
        if len(self._pending) >= self.pipeline_config.batch_size:
            self.flush()
        return None

    def flush(self) -> None:
        """Execute and judge any buffered queries (no-op on the serial path)."""
        if self.pipeline is None or not self._pending:
            return
        jobs, self._pending = self._pending, []
        self.outcomes.extend(self.pipeline.run_batch(jobs))

    def close(self) -> None:
        """Flush pending work, stop pipeline threads, close the backend.

        Safe to call twice; every campaign/worker error path funnels through
        here so adapters are never leaked.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
        finally:
            if self.pipeline is not None:
                self.pipeline.close()
            self.backend.close()

    def run(self, iterations: int) -> BugLog:
        """Run several iterations, skipping failed generations."""
        for _ in range(iterations):
            try:
                self.run_iteration()
            except GenerationError:
                continue
        self.flush()
        return self.bug_log
