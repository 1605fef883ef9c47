"""Shared scaffolding for the SQLancer-style baselines (PQS, TLP, NoRec).

The paper tailors SQLancer's three oracles to multi-table queries "by artificially
generating queries and tuples across more than one table ... all queries and
tuples are randomly generated".  The baselines here share a random join-query
generator that walks the schema's foreign keys but, unlike DSG+KQE, has no
ground-truth oracle, no noise awareness and no exploration guidance -- each
subclass only supplies its own test oracle.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bug_report import BugIncident, BugLog
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine, ExecutionReport
from repro.errors import GenerationError
from repro.expr.ast import ColumnRef, Comparison, Literal
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraphBuilder
from repro.plan.logical import JoinStep, JoinType, QuerySpec, SelectItem, TableRef
from repro.plan.sqlrender import SQLRenderer


class BaselineTester:
    """Base class: random multi-table query generation plus per-tool oracles."""

    name = "baseline"

    def __init__(self) -> None:
        self.dsg: Optional[DSG] = None
        self.engine: Optional[Engine] = None
        self.rng = random.Random(0)
        self.bug_log = BugLog()
        self.queries_generated = 0
        self.queries_executed = 0
        self._diversity = IsomorphicSetCounter()
        self._graph_builder: Optional[QueryGraphBuilder] = None
        # (table, column) -> its distinct values; the bound database does not
        # change while the baseline runs, so each column is read once.
        self._distinct_values: Dict[Tuple[str, str], List[Any]] = {}

    # ----------------------------------------------------------------- binding

    def bind(self, dsg: DSG, engine: Engine, seed: int = 0) -> None:
        """Attach the baseline to a generated database and a target engine."""
        self.dsg = dsg
        self.engine = engine
        # Derive the per-tool seed offset from a stable digest: hash(str) is
        # salted per process, which would give every worker a different RNG.
        name_digest = hashlib.sha256(self.name.encode("utf-8")).digest()
        offset = int.from_bytes(name_digest[:4], "big") % 1000
        self.rng = random.Random(seed + offset)
        self._graph_builder = QueryGraphBuilder(dsg.ndb.schema)
        self._distinct_values = {}

    @property
    def explored_isomorphic_sets(self) -> int:
        """Distinct query structures generated so far."""
        return self._diversity.distinct_sets

    @property
    def diversity(self) -> IsomorphicSetCounter:
        """The structure-diversity counter (same surface as TQS testers)."""
        return self._diversity

    # -------------------------------------------------------------- generation

    def random_join_query(self, max_joins: int = 3,
                          join_types: Sequence[JoinType] = (JoinType.INNER,
                                                            JoinType.LEFT_OUTER),
                          project_all_aliases: bool = False) -> QuerySpec:
        """A random FK join query without DSG's soundness-aware guidance."""
        assert self.dsg is not None
        graph = self.dsg.schema_graph
        tables = graph.table_names
        base_table = self.rng.choice(tables)
        used = {base_table}
        steps: List[JoinStep] = []
        for _ in range(self.rng.randint(1, max_joins)):
            frontier = [
                (anchor, edge) for anchor, edge in graph.edges_from_set(used)
            ]
            if not frontier:
                break
            anchor, edge = self.rng.choice(frontier)
            new_table = edge.other(anchor)
            join_type = self.rng.choice(list(join_types))
            steps.append(
                JoinStep(
                    TableRef(new_table, new_table),
                    join_type,
                    left_key=ColumnRef(anchor, edge.column),
                    right_key=ColumnRef(new_table, edge.column),
                )
            )
            used.add(new_table)
        if not steps:
            raise GenerationError(f"no joinable neighbour for table {base_table!r}")
        aliases = [base_table] + [step.table.alias for step in steps]
        select: List[SelectItem] = []
        pool = aliases if project_all_aliases else [self.rng.choice(aliases)]
        for alias in pool:
            columns = list(self.dsg.ndb.data_columns(alias))
            self.rng.shuffle(columns)
            for column in columns[:2]:
                select.append(SelectItem(ColumnRef(alias, column)))
        query = QuerySpec(
            base=TableRef(base_table, base_table),
            joins=steps,
            select=select or [SelectItem(ColumnRef(base_table,
                                                   self.dsg.ndb.data_columns(base_table)[0]))],
        )
        query.validate()
        return query

    def random_predicate(self, query: QuerySpec):
        """A random equality/range predicate over one projected column."""
        assert self.dsg is not None
        item = self.rng.choice(query.select)
        ref = item.expression
        if not isinstance(ref, ColumnRef) or ref.table is None:
            return None
        values = self._distinct_values.get((ref.table, ref.column))
        if values is None:
            values = self.dsg.ndb.database.table(ref.table).distinct_values(ref.column)
            self._distinct_values[(ref.table, ref.column)] = values
        if not values:
            return None
        op = self.rng.choice(["=", "<>", "<", ">="])
        return Comparison(op, ref, Literal(self.rng.choice(values)))

    # -------------------------------------------------------------- accounting

    def record_query(self, query: QuerySpec) -> str:
        """Register a generated query for the diversity metric."""
        assert self._graph_builder is not None
        self.queries_generated += 1
        graph = self._graph_builder.build(query)
        label = graph.canonical_label()
        self._diversity.add_label(label)
        return label

    def record_incident(self, query: QuerySpec, label: str, report: ExecutionReport,
                        expected_rows: int, mode: str) -> None:
        """Record one oracle violation."""
        assert self.engine is not None
        self.bug_log.record(
            BugIncident(
                dbms=self.engine.name,
                query_sql=SQLRenderer().query(query, report.hints.render_comment()),
                hint_name=report.hints.name,
                detection_mode=mode,
                query_canonical_label=label,
                fired_bug_ids=report.fired_bug_ids,
                expected_rows=expected_rows,
                observed_rows=len(report.result),
            )
        )

    # ------------------------------------------------------------------ oracle

    def run_iteration(self) -> None:
        """Generate one test and check this tool's oracle (subclass hook)."""
        raise NotImplementedError
