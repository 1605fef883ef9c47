"""Random-walk join query generation (paper §3.3, Figure 5).

The generator walks the schema graph starting from a random table vertex.  Each
table–table edge it crosses becomes a join step (whose join type is drawn from a
weighted distribution), each table–column edge becomes a filter predicate, and the
result is assembled into a :class:`~repro.plan.logical.QuerySpec` -- the AST of
Figure 5.

Join-type choices are restricted to the configurations for which the bitmap
ground truth of §3.4 is exact (see DESIGN.md §4): outer joins preserve the
foreign-key (child) side, semi/anti joins always probe the parent side, full
outer joins are only generated between noise-free tables, and cross joins are
verified as subsets.

KQE plugs into :meth:`RandomWalkQueryGenerator.generate` through the
``extension_chooser`` callback, which scores candidate extensions of the current
query graph and may terminate the walk early (Algorithm 2).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dsg.noise import NoiseReport
from repro.dsg.normalization import NormalizedDatabase
from repro.dsg.schema_graph import SchemaGraph
from repro.errors import GenerationError
from repro.expr.ast import ColumnRef, Comparison, Expression, ScalarSubquery, conjoin
from repro.expr.builder import PredicateBuilder
from repro.plan.logical import (
    AggregateFunction,
    AnyQuerySpec,
    CompoundQuerySpec,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    SetOperator,
    TableRef,
)
from repro.sqlvalue.datatypes import TypeCategory

logger = logging.getLogger(__name__)

DEFAULT_JOIN_TYPE_WEIGHTS: Dict[JoinType, float] = {
    JoinType.INNER: 0.40,
    JoinType.LEFT_OUTER: 0.16,
    JoinType.RIGHT_OUTER: 0.08,
    JoinType.FULL_OUTER: 0.04,
    JoinType.SEMI: 0.14,
    JoinType.ANTI: 0.12,
    JoinType.CROSS: 0.06,
}


@dataclass(frozen=True)
class CandidateExtension:
    """One possible next step of the random walk."""

    anchor: str
    new_table: str
    column: Optional[str]
    join_type: JoinType


@dataclass
class GenerationConfig:
    """Knobs of the query generator.

    The three widened-grammar probabilities (set operations, scalar
    subqueries, CTEs) default to 0.0, and the generator only draws from the
    RNG for a feature when its probability is strictly positive — so existing
    seeded campaigns replay byte-identically unless a knob is turned on.
    """

    min_joins: int = 1
    max_joins: int = 4
    filter_probability: float = 0.45
    aggregate_probability: float = 0.08
    max_projections: int = 4
    allow_cross: bool = True
    setop_probability: float = 0.0
    scalar_subquery_probability: float = 0.0
    cte_probability: float = 0.0
    max_setop_arms: int = 3
    join_type_weights: Dict[JoinType, float] = field(
        default_factory=lambda: dict(DEFAULT_JOIN_TYPE_WEIGHTS)
    )


ExtensionChooser = Callable[
    [TableRef, List[JoinStep], List[CandidateExtension]], Optional[CandidateExtension]
]


class RandomWalkQueryGenerator:
    """Generates multi-table join queries by random walk on the schema graph."""

    def __init__(
        self,
        ndb: NormalizedDatabase,
        noise_report: Optional[NoiseReport] = None,
        rng: Optional[random.Random] = None,
        config: Optional[GenerationConfig] = None,
    ) -> None:
        self.ndb = ndb
        self.noise_report = noise_report
        self.rng = rng or random.Random(23)
        self.config = config or GenerationConfig()
        self.graph = SchemaGraph(ndb.schema)
        self._predicates = PredicateBuilder(self.rng)
        # Each filter column's distinct values, read on first use.  The
        # database is final by now: DSG builds its generator after noise
        # injection, and nothing writes the database afterwards.
        self._distinct_values: Dict[Tuple[str, str], List[Any]] = {}
        self.rejected_queries = 0
        if not self.graph.join_edges:
            raise GenerationError("schema graph has no join edges; nothing to generate")

    # ------------------------------------------------------------------ helpers

    def _noisy_tables(self) -> Set[str]:
        if self.noise_report is None:
            return set()
        return set(self.noise_report.touched_tables) | set(
            self.noise_report.augmented_tables
        )

    def _allowed_join_types(self, direction: str, is_first_step: bool,
                            anchor: str, new_table: str) -> List[JoinType]:
        allowed = [JoinType.INNER]
        if direction == "to_parent":
            allowed.extend([JoinType.LEFT_OUTER, JoinType.SEMI, JoinType.ANTI])
        elif is_first_step:
            allowed.append(JoinType.RIGHT_OUTER)
        if is_first_step and not ({anchor, new_table} & self._noisy_tables()):
            allowed.append(JoinType.FULL_OUTER)
        if self.config.allow_cross:
            allowed.append(JoinType.CROSS)
        return allowed

    def _candidates(self, used: Set[str], exposed: Set[str],
                    is_first_step: bool) -> List[CandidateExtension]:
        candidates: List[CandidateExtension] = []
        for anchor, edge in self.graph.edges_from_set(used):
            if anchor not in exposed:
                continue
            new_table = edge.other(anchor)
            direction = edge.direction_from(anchor)
            for join_type in self._allowed_join_types(direction, is_first_step,
                                                      anchor, new_table):
                column = edge.column if join_type.keyed else None
                candidates.append(
                    CandidateExtension(anchor, new_table, column, join_type)
                )
        return candidates

    def _default_chooser(self, base: TableRef, steps: List[JoinStep],
                         candidates: List[CandidateExtension]) -> Optional[CandidateExtension]:
        weights = [
            max(1e-6, self.config.join_type_weights.get(candidate.join_type, 0.05))
            for candidate in candidates
        ]
        return self.rng.choices(candidates, weights=weights, k=1)[0]

    # ---------------------------------------------------------------- assembly

    def _build_step(self, candidate: CandidateExtension) -> JoinStep:
        table_ref = TableRef(candidate.new_table, candidate.new_table)
        if not candidate.join_type.keyed:
            return JoinStep(table_ref, candidate.join_type)
        return JoinStep(
            table_ref,
            candidate.join_type,
            left_key=ColumnRef(candidate.anchor, candidate.column),
            right_key=ColumnRef(candidate.new_table, candidate.column),
        )

    def _column_pool(self, exposed: Sequence[str]) -> List[Tuple[str, str]]:
        pool: List[Tuple[str, str]] = []
        for table in exposed:
            for column in self.ndb.data_columns(table):
                pool.append((table, column))
        return pool

    def _build_filters(self, exposed: Sequence[str]) -> Optional[Expression]:
        predicates: List[Expression] = []
        for table, column in self._column_pool(exposed):
            if self.rng.random() >= self.config.filter_probability / max(
                1, len(self.ndb.data_columns(table))
            ):
                continue
            column_def = self.ndb.schema.table(table).column(column)
            observed = self._distinct_values.get((table, column))
            if observed is None:
                observed = self.ndb.database.table(table).distinct_values(column)
                self._distinct_values[(table, column)] = observed
            predicates.append(self._predicates.build(table, column_def, observed))
            if len(predicates) >= 2:
                break
        return conjoin(predicates)

    def _build_select(self, exposed: Sequence[str],
                      allow_aggregates: bool = True) -> Tuple[List[SelectItem], List[ColumnRef]]:
        pool = self._column_pool(exposed)
        self.rng.shuffle(pool)
        count = min(len(pool), self.rng.randint(1, self.config.max_projections))
        chosen = pool[:count]
        if (allow_aggregates and len(chosen) >= 2
                and self.rng.random() < self.config.aggregate_probability):
            group_columns = [ColumnRef(t, c) for t, c in chosen[:-1]]
            target_table, target_column = chosen[-1]
            aggregate = self.rng.choice(
                [AggregateFunction.COUNT, AggregateFunction.MIN, AggregateFunction.MAX]
            )
            select = [SelectItem(ref) for ref in group_columns]
            select.append(
                SelectItem(ColumnRef(target_table, target_column), aggregate=aggregate)
            )
            return select, group_columns
        return [SelectItem(ColumnRef(t, c)) for t, c in chosen], []

    _NUMERIC_CATEGORIES = (TypeCategory.INTEGER, TypeCategory.DECIMAL,
                           TypeCategory.FLOAT)

    def _build_scalar_subquery(
        self, exposed: Sequence[str], alias: str
    ) -> Optional[Tuple[ColumnRef, ScalarSubquery]]:
        """Build an uncorrelated single-row subquery domain-matched to a column.

        The inner query is ``SELECT agg(col) FROM table AS <alias>`` — an
        aggregate with no GROUP BY, so it returns exactly one row on every
        engine (SQLite silently takes the first row of a multi-row scalar
        subquery while DuckDB errors; single-row-by-construction sidesteps
        that divergence).  Aggregates are restricted to the exact ones —
        MIN / MAX, plus COUNT for integer columns — because AVG / SUM float
        drift could flip a comparison at the boundary and surface as a fake
        differential mismatch.  Columns are numeric only: MIN / MAX over
        strings would compare under engine collations the reference executor
        does not model.
        """
        pool = [
            (table, column)
            for table, column in self._column_pool(exposed)
            if self.ndb.schema.table(table).column(column).dtype.category
            in self._NUMERIC_CATEGORIES
        ]
        if not pool:
            return None
        table, column = self.rng.choice(pool)
        category = self.ndb.schema.table(table).column(column).dtype.category
        aggregates = [AggregateFunction.MIN, AggregateFunction.MAX]
        if category is TypeCategory.INTEGER:
            aggregates.append(AggregateFunction.COUNT)
        aggregate = self.rng.choice(aggregates)
        inner = QuerySpec(
            base=TableRef(table, alias),
            select=[SelectItem(ColumnRef(alias, column), aggregate=aggregate)],
            distinct=False,
        )
        inner.validate()
        return ColumnRef(table, column), ScalarSubquery(inner)

    _SCALAR_COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "<>")

    def _build_scalar_subquery_filter(
        self, exposed: Sequence[str], alias: str
    ) -> Optional[Expression]:
        built = self._build_scalar_subquery(exposed, alias)
        if built is None:
            return None
        outer_ref, subquery = built
        op = self.rng.choice(self._SCALAR_COMPARISON_OPS)
        return Comparison(op, outer_ref, subquery)

    @staticmethod
    def _exposed_order(base_table: str, steps: Sequence[JoinStep]) -> List[str]:
        """The base table, then every joined table whose columns the chain
        *steps* exposes, in join order."""
        return [base_table] + [
            step.table.table for step in steps if step.join_type.exposes_right_columns
        ]

    # ------------------------------------------------------------------ public

    def generate(
        self,
        start_table: Optional[str] = None,
        walk_length: Optional[int] = None,
        extension_chooser: Optional[ExtensionChooser] = None,
    ) -> QuerySpec:
        """Generate one join query.

        Parameters
        ----------
        start_table:
            Table vertex to start the walk from (random when omitted).
        walk_length:
            Maximum number of join steps (random in ``[min_joins, max_joins]``
            when omitted).
        extension_chooser:
            KQE's adaptive chooser; receives the base table, the steps so far and
            the candidate extensions, returns the chosen extension or ``None`` to
            terminate the walk early.
        """
        tables = self.graph.table_names
        base_table = start_table or self.rng.choice(tables)
        if base_table not in tables:
            raise GenerationError(f"unknown start table {base_table!r}")
        chooser = extension_chooser or self._default_chooser
        length = walk_length if walk_length is not None else self.rng.randint(
            self.config.min_joins, self.config.max_joins
        )
        length = max(1, length)
        base = TableRef(base_table, base_table)
        used: Set[str] = {base_table}
        exposed: Set[str] = {base_table}
        steps: List[JoinStep] = []
        for step_index in range(length):
            candidates = self._candidates(used, exposed, is_first_step=step_index == 0)
            if not candidates:
                break
            candidate = chooser(base, steps, candidates)
            if candidate is None:
                break
            step = self._build_step(candidate)
            steps.append(step)
            used.add(candidate.new_table)
            if candidate.join_type.exposes_right_columns:
                exposed.add(candidate.new_table)
            if candidate.join_type.pads_left:
                # A step padding the tables before it (right/full outer)
                # preserves the newly joined side; further join steps over an
                # already-filtered accumulation would break the bitmap ground
                # truth, so it terminates the walk.
                break
        if not steps:
            raise GenerationError(
                f"random walk from {base_table!r} could not produce any join step"
            )
        exposed_order = self._exposed_order(base_table, steps)
        # Cross joins are verified as subsets (Table 2), which is incompatible
        # with aggregate values computed over the full cartesian product.
        has_cross = any(not step.join_type.keyed for step in steps)
        select, group_by = self._build_select(exposed_order,
                                              allow_aggregates=not has_cross)
        where = self._build_filters(exposed_order)
        subquery_probability = self.config.scalar_subquery_probability
        if (subquery_probability > 0
                and self.rng.random() < subquery_probability):
            predicate = self._build_scalar_subquery_filter(exposed_order, "sq0")
            if predicate is not None:
                where = conjoin([where, predicate])
        has_aggregates = bool(group_by) or any(
            item.aggregate is not None for item in select
        )
        if (subquery_probability > 0 and not has_aggregates
                and self.rng.random() < subquery_probability):
            # Scalar subqueries as select items only appear in plain
            # projections: mixing a bare subquery item into a GROUP BY
            # query is rejected by stricter engines (DuckDB) unless it is
            # grouped or aggregated.
            built = self._build_scalar_subquery(exposed_order, "sq1")
            if built is not None:
                _, subquery = built
                select = select + [SelectItem(subquery, alias="sq_value")]
        query = QuerySpec(
            base=base,
            joins=steps,
            select=select,
            where=where,
            group_by=group_by,
            distinct=True,
        )
        query.validate()
        return query

    def generate_statement(
        self,
        start_table: Optional[str] = None,
        walk_length: Optional[int] = None,
        extension_chooser: Optional[ExtensionChooser] = None,
    ) -> AnyQuerySpec:
        """Generate one statement: a plain query, a set operation, or a CTE.

        The first arm is a normal :meth:`generate` walk.  Further set-operation
        arms are *structural twins* of it — same base, joins, select list and
        grouping, with independently re-drawn WHERE filters.  Twins guarantee
        identical column types per select position, which sidesteps
        engine-specific implicit-cast widening on mixed-type UNIONs (DuckDB
        coerces INT ∪ VARCHAR to VARCHAR; the reference executor has no such
        lattice), while the differing filters still exercise real overlap:
        INTERSECT / EXCEPT / UNION over partially-agreeing row sets.
        """
        query = self.generate(start_table=start_table, walk_length=walk_length,
                              extension_chooser=extension_chooser)
        config = self.config
        arms = [query]
        operators: List[SetOperator] = []
        if (config.setop_probability > 0
                and self.rng.random() < config.setop_probability):
            operator = self.rng.choice([
                SetOperator.UNION,
                SetOperator.UNION_ALL,
                SetOperator.INTERSECT,
                SetOperator.EXCEPT,
            ])
            extra = self.rng.randint(1, max(1, config.max_setop_arms - 1))
            exposed_order = self._exposed_order(query.base.table, query.joins)
            for _ in range(extra):
                arms.append(replace(query,
                                    where=self._build_filters(exposed_order)))
            operators = [operator] * (len(arms) - 1)
        cte_name = None
        if (config.cte_probability > 0
                and self.rng.random() < config.cte_probability):
            cte_name = "cte0"
        if len(arms) == 1 and cte_name is None:
            return query
        compound = CompoundQuerySpec(arms=arms, operators=operators,
                                     cte_name=cte_name)
        compound.validate()
        return compound

    def generate_many(
        self,
        count: int,
        start_table: Optional[str] = None,
        walk_length: Optional[int] = None,
        extension_chooser: Optional[ExtensionChooser] = None,
    ) -> List[QuerySpec]:
        """Generate several queries (skipping start tables that cannot extend).

        Rejections (walks that cannot produce a join step) are retried up to
        ``10 * count`` attempts and tallied in :attr:`rejected_queries`.  A
        shortfall is *reported*, not silently swallowed: callers sizing test
        pools or campaign batches on ``count`` would otherwise never learn
        they got fewer queries.
        """
        queries: List[QuerySpec] = []
        rejected = 0
        attempts = 0
        max_attempts = count * 10
        while len(queries) < count and attempts < max_attempts:
            attempts += 1
            try:
                queries.append(self.generate(
                    start_table=start_table,
                    walk_length=walk_length,
                    extension_chooser=extension_chooser,
                ))
            except GenerationError:
                rejected += 1
        self.rejected_queries += rejected
        if len(queries) < count:
            logger.warning(
                "generate_many produced %d of %d requested queries "
                "(%d attempts, %d rejected)",
                len(queries), count, attempts, rejected,
            )
        return queries
