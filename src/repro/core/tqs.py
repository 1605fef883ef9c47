"""TQS: the top-level testing loop (Algorithm 1).

One :class:`TQS` instance binds a DSG pipeline (schema + data + generator +
oracle), a target engine and (optionally) a KQE explorer, and repeatedly:

1. generates a join query by (adaptive) random walk,
2. registers its query graph for diversity accounting,
3. transforms it with several hint sets,
4. executes every transformed query on the target engine,
5. verifies each result set against the wide-table ground truth (or, in the
   ``use_ground_truth=False`` ablation, against the other physical plans), and
6. records, deduplicates and minimizes any detected logic bug.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.core.bug_report import BugIncident, BugLog
from repro.core.reduction import QueryReducer
from repro.dsg.ground_truth import GroundTruth
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine, ExecutionReport
from repro.errors import GenerationError
from repro.kqe.explorer import KQE
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraphBuilder
from repro.plan.logical import QuerySpec


@dataclass
class TQSConfig:
    """Switches of the TQS loop (the ablation axes of Table 5)."""

    use_ground_truth: bool = True
    use_kqe: bool = True
    reduce_failures: bool = False
    max_generation_retries: int = 5
    seed: int = 97


@dataclass
class IterationOutcome:
    """What happened during one iteration of Algorithm 1."""

    query: QuerySpec
    canonical_label: str
    novel_structure: bool
    executions: int
    incidents: List[BugIncident] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """Whether this iteration revealed at least one mismatch."""
        return bool(self.incidents)


class TQS:
    """Transformed Query Synthesis against one simulated DBMS."""

    def __init__(self, dsg: DSG, engine: Engine,
                 config: Optional[TQSConfig] = None,
                 kqe: Optional[KQE] = None) -> None:
        self.dsg = dsg
        self.engine = engine
        self.config = config or TQSConfig()
        self.rng = random.Random(self.config.seed)
        self.kqe = kqe if kqe is not None else (
            KQE(dsg.ndb.schema, rng=random.Random(self.config.seed + 1))
            if self.config.use_kqe else None
        )
        self.graph_builder = QueryGraphBuilder(dsg.ndb.schema)
        self.diversity = IsomorphicSetCounter()
        self.bug_log = BugLog()
        self.queries_generated = 0
        self.queries_executed = 0

    # ---------------------------------------------------------------- plumbing

    def _generate(self) -> QuerySpec:
        chooser = self.kqe.extension_chooser if (self.kqe and self.config.use_kqe) else None
        last_error: Optional[Exception] = None
        for _ in range(self.config.max_generation_retries):
            try:
                return self.dsg.generate_query(extension_chooser=chooser)
            except GenerationError as error:
                last_error = error
        raise GenerationError(f"query generation kept failing: {last_error}")

    def _verify_with_ground_truth(
        self, query: QuerySpec, label: str, reports: Sequence[ExecutionReport],
        ground_truth: GroundTruth,
    ) -> List[BugIncident]:
        incidents: List[BugIncident] = []
        for report in reports:
            if ground_truth.matches(report.result):
                continue
            incidents.append(
                BugIncident(
                    dbms=self.engine.name,
                    query_sql=query.render(report.hints.render_comment()),
                    hint_name=report.hints.name,
                    detection_mode="ground_truth",
                    query_canonical_label=label,
                    fired_bug_ids=report.fired_bug_ids,
                    expected_rows=len(ground_truth.result),
                    observed_rows=len(report.result),
                )
            )
        return incidents

    def _verify_differentially(
        self, query: QuerySpec, label: str, reports: Sequence[ExecutionReport]
    ) -> List[BugIncident]:
        """The TQS!GT ablation: compare the plans against each other only."""
        if len(reports) < 2:
            return []
        signatures = [report.result.normalized() for report in reports]
        majority_signature, _count = Counter(signatures).most_common(1)[0]
        majority_rows = next(
            len(report.result) for report, signature in zip(reports, signatures)
            if signature == majority_signature
        )
        # Faults that also fired in the majority plans cannot explain why the
        # deviating plan differs, so differential testing can only attribute a
        # mismatch to the faults unique to the deviating execution.  This is
        # exactly why plan-independent bugs are invisible to the TQS!GT variant.
        majority_fired = set()
        for report, signature in zip(reports, signatures):
            if signature == majority_signature:
                majority_fired.update(report.fired_bug_ids)
        incidents: List[BugIncident] = []
        for report, signature in zip(reports, signatures):
            if signature == majority_signature:
                continue
            blamed = tuple(sorted(set(report.fired_bug_ids) - majority_fired))
            incidents.append(
                BugIncident(
                    dbms=self.engine.name,
                    query_sql=query.render(report.hints.render_comment()),
                    hint_name=report.hints.name,
                    detection_mode="differential",
                    query_canonical_label=label,
                    fired_bug_ids=blamed,
                    expected_rows=majority_rows,
                    observed_rows=len(report.result),
                )
            )
        return incidents

    def _minimize(self, query: QuerySpec, incident: BugIncident) -> Optional[str]:
        hints = next(
            (t.hints for t in self.dsg.transform_query(query)
             if t.hints.name == incident.hint_name),
            None,
        )
        if hints is None:
            return None

        def still_fails(candidate: QuerySpec) -> bool:
            ground_truth = self.dsg.ground_truth(candidate)
            result = self.engine.execute(candidate, hints)
            return not ground_truth.matches(result)

        reducer = QueryReducer(still_fails)
        minimized = reducer.reduce(query)
        return minimized.render(hints.render_comment())

    # ------------------------------------------------------------------ public

    def run_iteration(self) -> IterationOutcome:
        """One pass through lines 7-15 of Algorithm 1."""
        with obs.span("generate"):
            query = self._generate()
            self.queries_generated += 1
            graph = self.graph_builder.build(query)
            label = graph.canonical_label()
            novel = self.diversity.add_label(label)
            if self.kqe is not None and self.config.use_kqe:
                self.kqe.register(query, label)
            transformed = self.dsg.transform_query(query)
        with obs.span("execute.target"):
            reports = [
                self.engine.execute_with_report(query, item.hints)
                for item in transformed
            ]
        self.queries_executed += len(reports)
        with obs.span("judge"):
            if self.config.use_ground_truth:
                ground_truth = self.dsg.ground_truth(query)
                incidents = self._verify_with_ground_truth(query, label, reports,
                                                           ground_truth)
            else:
                incidents = self._verify_differentially(query, label, reports)
            if incidents and self.config.reduce_failures:
                minimized_sql = self._minimize(query, incidents[0])
                if minimized_sql is not None:
                    incidents[0] = BugIncident(
                        **{**incidents[0].__dict__, "minimized_sql": minimized_sql}
                    )
            for incident in incidents:
                self.bug_log.record(incident)
        return IterationOutcome(
            query=query,
            canonical_label=label,
            novel_structure=novel,
            executions=len(reports),
            incidents=incidents,
        )

    def run(self, iterations: int) -> BugLog:
        """Run several iterations and return the accumulated bug log."""
        for _ in range(iterations):
            try:
                self.run_iteration()
            except GenerationError:
                continue
        return self.bug_log

    # ------------------------------------------------------------------ stats

    @property
    def explored_isomorphic_sets(self) -> int:
        """Distinct query-graph isomorphism classes generated so far."""
        return self.diversity.distinct_sets
