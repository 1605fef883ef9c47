"""The planner: logical :class:`QuerySpec` + :class:`HintSet` -> physical plan.

Planning has two halves.  :meth:`Planner.prepare` gives the
:class:`PreparedQuery` of a query, which holds everything that depends on the
query alone; :meth:`PreparedQuery.plan` does what depends on the hint set.
That in turn has two steps: :meth:`PreparedQuery.decide` makes the join
decisions (order, algorithms, materialization, trigger contexts) and
:meth:`PreparedQuery.build` builds the operators.  The bug-free planner
evaluates a WHERE conjunct over one table below the joins, on that table's
scan, where no join can pad the table's rows (see :class:`PreparedQuery`);
every other conjunct, and every conjunct of a planner with other hooks, is
evaluated over the joins' output.  The TQS loop runs every
query under a dozen hint sets, so it prepares once; hint sets with the same
:meth:`PreparedQuery.execution_key`, computed without deciding, share one
execution, which only the first of them decides and builds.  That key holds,
per join, the step and what its hooks make of its planned trigger; it holds
the join's algorithm only as far as the hooks tell its matching routine apart,
since the bug-free routines (hash, scan and merge) return the same matches.
:meth:`Planner.plan` is the one-shot composition of it all.

A plan is compiled as it is built: every operator resolves its column slots
and compiles its expressions against its input layout in its constructor, so
executing the plan does only per-row work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Hashable, Iterator, List,
    NamedTuple, Optional, Sequence, Tuple,
)

from repro.catalog.schema import DatabaseSchema
from repro.expr.ast import (
    And,
    Compiled,
    Expression,
    Layout,
    SubqueryRunner,
    conjoin,
    contains_subquery,
)
from repro.optimizer.cost import JoinCostInput, choose_algorithm
from repro.optimizer.hints import HintSet, default_hints
from repro.plan.joins import Join, JoinKeySpec
from repro.plan.logical import JoinStep, QuerySpec
from repro.plan.operators import (
    Compiler,
    Filter,
    Limit,
    Materialize,
    Project,
    Sort,
    TableScan,
)
from repro.plan.physical import (
    ExecRow,
    ExecutionHooks,
    JoinAlgorithm,
    PhysicalOperator,
    TriggerContext,
)
from repro.sqlvalue.casts import comparison_domain
from repro.sqlvalue.datatypes import TypeCategory
from repro.storage.database import Database

if TYPE_CHECKING:
    from repro.engine.resultset import ResultSet

_NUMERIC_DOMAINS = (TypeCategory.DECIMAL, TypeCategory.FLOAT, TypeCategory.INTEGER)


class Planner:
    """Builds executable physical plans for one database instance."""

    def __init__(self, database: Database, hooks: Optional[ExecutionHooks] = None) -> None:
        self.database = database
        self.schema: DatabaseSchema = database.schema
        self.hooks = hooks or ExecutionHooks()
        # Campaign constants, each bounded by the schema rather than by the
        # number of queries planned.  The database's rows may change, so
        # nothing here depends on them: row counts are read per prepare.
        # (table, alias) -> its stateless scan
        self._scans: Dict[Tuple[str, str], TableScan] = {}
        # (left alias, left table, left column, right alias, right table,
        # right column) -> the join edge's key spec and indexed-key flag
        self._edges: Dict[Tuple[str, ...], Tuple[JoinKeySpec, bool]] = {}
        # (join type, key domain) -> switch context -> algorithm -> the
        # planned trigger and the join's two execution triggers, and likewise
        # -> behaviour key; the switch context is the hint set's (switches,
        # join-cache level), never the hint set, whose JOIN_ORDER sets differ
        # per query.
        self._triggers: Dict[Hashable, Dict[Hashable, Dict[Any, _Triggers]]] = {}
        self._behaviour_keys: Dict[Hashable, Dict[Hashable, Dict[Any, Hashable]]] = {}

    # ------------------------------------------------------------------ public

    def prepare(self, query: QuerySpec) -> "PreparedQuery":
        """*query* prepared for planning; the work is done by its first plan."""
        return PreparedQuery(self, query)

    def plan(self, query: QuerySpec, hints: Optional[HintSet] = None) -> PhysicalOperator:
        """Build the physical plan for *query* under *hints*."""
        return self.prepare(query).plan(hints)

    # ------------------------------------------------------- campaign constants

    def _scan(self, table: str, alias: str) -> TableScan:
        """The scan of *table* as *alias*; it reads the table's rows live."""
        scan = self._scans.get((table, alias))
        if scan is None:
            scan = self._scans[(table, alias)] = TableScan(self.database, table, alias)
        return scan

    def _edge(self, step: JoinStep,
              alias_to_table: Dict[str, str]) -> Tuple[JoinKeySpec, bool]:
        """The key spec of keyed *step*'s edge, and whether its right column
        is a key column of its table."""
        left, right = step.left_key, step.right_key
        left_table = alias_to_table[left.table]
        right_table = alias_to_table[right.table]
        edge = (left.table, left_table, left.column,
                right.table, right_table, right.column)
        facts = self._edges.get(edge)
        if facts is None:
            schema = self.schema
            right_schema = schema.table(right_table)
            key = JoinKeySpec(
                left_column=f"{left.table}.{left.column}",
                right_column=f"{right.table}.{right.column}",
                domain=comparison_domain(
                    schema.table(left_table).column(left.column).dtype,
                    right_schema.column(right.column).dtype,
                ),
            )
            key_columns = set(right_schema.primary_key) | set(right_schema.implicit_key)
            for table_key in right_schema.keys:
                key_columns.update(table_key.columns)
            facts = self._edges[edge] = (key, right.column in key_columns)
        return facts


@dataclass(frozen=True)
class _PreparedStep:
    """The hint-independent facts of one join step."""

    step: JoinStep
    position: int
    scan: PhysicalOperator  # the step's table scan, under its pushed filter
    cardinality: int
    key: Optional[JoinKeySpec]
    key_is_indexed: bool

    @property
    def alias(self) -> str:
        return self.step.table.alias

    @cached_property
    def depends_on(self) -> FrozenSet[str]:
        """The other aliases this step's ON condition reads: its left key's
        and every alias its residual condition names."""
        step = self.step
        aliases = {step.left_key.table} if step.left_key is not None else set()
        if step.extra_condition is not None:
            aliases.update(table for table, _ in step.extra_condition.references()
                           if table)
        aliases.discard(self.alias)
        return frozenset(aliases)


#: A planned trigger and the triggers its join's executions hand the fault
#: seams, without and with null keys.
_Triggers = Tuple[TriggerContext, Tuple[TriggerContext, TriggerContext]]


class JoinDecision(NamedTuple):
    """What one hint set decided for one join step of a prepared query."""

    step: _PreparedStep
    algorithm: JoinAlgorithm
    trigger: TriggerContext
    execution_triggers: Tuple[TriggerContext, TriggerContext]


class PreparedQuery:
    """The query-only half of planning one query, shared by all its plans.

    It copies the query's clauses when it is made, so later changes to the
    :class:`QuerySpec` (NoREC and PQS assign ``where`` in place) do not
    reach it: prepare again instead.  The first plan or key validates the
    query, then keeps the driving table's scan and estimated cardinality,
    the cost-based algorithms of the prepared join order and, per join step,
    the key spec, indexed-key flag, row count and scan.  The scans, key specs
    and indexed flags, and the trigger each step plans, are campaign
    constants that the planner builds once for all its prepared queries; the
    row counts are read from the database by each prepared query.

    It also places the WHERE clause, split into its conjuncts, once
    (selection pushdown).  When the planner's hooks are exactly
    :class:`~repro.plan.physical.ExecutionHooks`, a conjunct without
    subqueries that reads one table is evaluated by a :class:`Filter` on
    that table's scan if the table's rows reach the WHERE clause unpadded:
    no step of the query pads the tables before it (``pads_left``: RIGHT,
    FULL), and the table is the driving one or joined by a step that is not
    outer and keeps its columns (INNER, CROSS).  A bug-free join
    matches each input row on its own and emits in input order, so the rows
    reaching the filter over the joins are then, in the same order, those of
    the unpushed plan that the pushed conjuncts keep.  Storage refuses NaN,
    so no comparison of stored values raises, and evaluating a conjunct on
    a row the joins would have dropped changes nothing.  The other
    conjuncts stay in the filter over the joins' output.  Hooks of a
    subclass keep the whole clause there: seeded faults observe join inputs
    (NULL keys, duplicate build keys, the keys a fault fires on), so a
    pushed filter could change what fires.

    Compiled closures are kept too, keyed by the expression (the copied
    clauses hold every expression compiled, so identities stay unique) and
    the layout it was compiled against: a layout differs between plans only
    when their join orders do.  A closure that evaluates an IN, EXISTS or
    scalar subquery calls its plan's subquery runner, so it is compiled per
    plan, and each plan still runs a subquery at most once, on first
    evaluation.

    :attr:`executions` records, per :meth:`execution_key`, the result and
    fired bug ids of the plan that executed under that key; the engine
    answers a later hint set with an equal key from it.  The database is
    read when each key first executes, so prepare again after changing it.
    """

    def __init__(self, planner: Planner, query: QuerySpec) -> None:
        self.planner = planner
        # The clauses as they are now: later changes to *query* do not reach
        # this prepared query, and the expressions its closures are keyed by
        # live as long as it does.
        self._query = replace(
            query, joins=list(query.joins), select=list(query.select),
            group_by=list(query.group_by), order_by=list(query.order_by))
        self._scan: Optional[PhysicalOperator] = None
        self._where: Optional[Expression] = None
        self._cardinality = 0
        self._steps: Optional[List[_PreparedStep]] = None
        self._defaults: List[JoinAlgorithm] = []
        self._step_triggers: List[Dict[Hashable, Dict[Any, _Triggers]]] = []
        self._step_behaviour_keys: List[Dict[Hashable, Dict[Any, Hashable]]] = []
        self._closures: Dict[Tuple[Any, Tuple[str, ...]], Optional[Callable]] = {}
        self._has_subquery: Optional[bool] = None
        self.executions: Dict[Hashable, Tuple["ResultSet", Tuple[int, ...]]] = {}

    def _prepare(self) -> List[_PreparedStep]:
        """Validate the query and build its hint-independent state."""
        query = self._query
        query.validate()
        database = self.planner.database
        cardinality = database.row_count(query.base.table)
        # Mirror real optimizers: a WHERE clause over the driving table lowers
        # the estimated outer cardinality, which can flip the cost-based join
        # algorithm choice (this is what gives TLP's partition queries plans
        # that differ from the unpartitioned query).
        if query.where is not None:
            referenced_aliases = {t for t, _ in query.where.references() if t}
            if query.base.alias in referenced_aliases:
                cardinality = max(1, int(cardinality * 0.4))
        self._cardinality = cardinality
        scans: Dict[str, PhysicalOperator] = {
            ref.alias: self.planner._scan(ref.table, ref.alias)
            for ref in query.table_refs
        }
        pushed, self._where = self._place_where(scans)
        for alias, predicate in pushed.items():
            scans[alias] = Filter(scans[alias], predicate)
        self._scan = scans[query.base.alias]
        alias_to_table = {ref.alias: ref.table for ref in query.table_refs}
        return [self._prepare_step(step, position, scans[step.table.alias],
                                   alias_to_table)
                for position, step in enumerate(query.joins)]

    def _place_where(self, scans: Dict[str, PhysicalOperator],
                     ) -> Tuple[Dict[str, Expression], Optional[Expression]]:
        """The WHERE clause placed: per alias, the conjuncts its scan filters
        (see the class docstring), and what the filter over the joins keeps."""
        query = self._query
        where = query.where
        if (where is None or type(self.planner.hooks) is not ExecutionHooks
                or any(step.join_type.pads_left for step in query.joins)):
            return {}, where
        unpadded = {query.base.alias} | {
            step.table.alias for step in query.joins
            if not step.join_type.is_outer and step.join_type.exposes_right_columns}
        pushed: Dict[str, List[Expression]] = {}
        kept: List[Expression] = []
        for conjunct in where.operands if isinstance(where, And) else (where,):
            alias = _single_alias(conjunct, scans)
            if alias in unpadded:
                pushed.setdefault(alias, []).append(conjunct)
            else:
                kept.append(conjunct)
        if not pushed:
            return {}, where
        return ({alias: conjoin(conjuncts) for alias, conjuncts in pushed.items()},
                conjoin(kept))

    def _prepare_step(self, step: JoinStep, position: int, scan: PhysicalOperator,
                      alias_to_table: Dict[str, str]) -> _PreparedStep:
        cardinality = self.planner.database.row_count(step.table.table)
        if not step.join_type.keyed:
            return _PreparedStep(step, position, scan, cardinality, key=None,
                                 key_is_indexed=False)
        key, key_is_indexed = self.planner._edge(step, alias_to_table)
        return _PreparedStep(step, position, scan, cardinality, key=key,
                             key_is_indexed=key_is_indexed)

    def plan(self, hints: Optional[HintSet] = None) -> PhysicalOperator:
        """Build the physical plan of the query under *hints*."""
        hints = hints or default_hints()
        return self.build(hints, self.decide(hints))

    def decide(self, hints: HintSet) -> List[JoinDecision]:
        """The plan's join decisions under *hints*, in join order.

        This is the whole of what a hint set changes in a plan without
        subqueries: the join order, and each join's algorithm,
        materialization and trigger context.  No operator is built.
        """
        context = _switch_context(hints)
        return [JoinDecision(step, algorithm,
                             *self._triggers(step, algorithm, hints, context))
                for step, algorithm in zip(*self._join_plan(hints))]

    def _triggers(self, step: _PreparedStep, algorithm: JoinAlgorithm,
                  hints: HintSet, context: Hashable) -> _Triggers:
        """The planner's trigger of *step* running *algorithm* under *hints*,
        whose switch context is *context*, and its join's execution triggers."""
        memo = self._step_triggers[step.position].setdefault(context, {})
        triggers = memo.get(algorithm)
        if triggers is None:
            # The planned trigger already is the join's execution trigger
            # without null keys: same algorithm, join type and key domain.
            planned = _planned_trigger(step, algorithm, hints)
            triggers = memo[algorithm] = (
                planned, (planned, planned._replace(has_null_keys=True)))
        return triggers

    def execution_key(self, hints: HintSet) -> Hashable:
        """What decides the rows and fired bug ids of the plan of *hints*.

        Two hint sets with equal keys execute alike.  Per join, in order: the
        step's position in the query and its hooks'
        :meth:`~repro.plan.physical.ExecutionHooks.behaviour_key` of the
        trigger :meth:`decide` would plan, which answers for the matching
        routine too (the key of the seeded-fault hooks names it only when a
        matched fault is read inside it); every other operator depends on
        the join order alone.  A query with a subquery adds *hints*, which
        the subquery plans follow.

        No decision is made: join type, key domain, algorithm, switches and
        join-cache level fix the trigger, so each planner asks its hooks once
        per distinct such input.
        """
        steps, algorithms = self._join_plan(hints)
        if self._has_subquery is None:
            self._has_subquery = any(
                map(contains_subquery, _evaluated_expressions(self._query)))
        context = _switch_context(hints)
        joins = []
        for step, algorithm in zip(steps, algorithms):
            keys = self._step_behaviour_keys[step.position].setdefault(context, {})
            key = keys.get(algorithm, _UNSEEN)
            if key is _UNSEEN:
                key = keys[algorithm] = self.planner.hooks.behaviour_key(
                    self._triggers(step, algorithm, hints, context)[0])
            joins.append((step.position, key))
        return (tuple(joins), hints) if self._has_subquery else tuple(joins)

    def build(self, hints: HintSet,
              decisions: Sequence[JoinDecision]) -> PhysicalOperator:
        """The operators of the plan that *hints* decided as *decisions*."""
        query = self._query
        compiler = _PlanCompiler(self._closures, self._subquery_runner(hints))
        operator: PhysicalOperator = self._scan
        for decision in decisions:
            operator = self._build_join(operator, decision, compiler)
        if self._where is not None:
            operator = Filter(operator, self._where, compiler)
        operator = Project(
            operator,
            query.select,
            group_by=query.group_by,
            distinct=query.distinct,
            compiler=compiler,
        )
        if query.order_by:
            operator = Sort(operator, query.order_by, compiler)
        if query.limit is not None:
            operator = Limit(operator, query.limit)
        return operator

    def _join_plan(self, hints: HintSet,
                   ) -> Tuple[List[_PreparedStep], List[JoinAlgorithm]]:
        """The join order under *hints* and each step's forced or default algorithm."""
        if self._steps is None:
            self._steps = self._prepare()
            self._defaults = self._cost_defaults(self._steps)
            planner = self.planner
            kinds = [(prepared.step.join_type,
                      None if prepared.key is None else prepared.key.domain)
                     for prepared in self._steps]
            self._step_triggers = [planner._triggers.setdefault(kind, {})
                                   for kind in kinds]
            self._step_behaviour_keys = [planner._behaviour_keys.setdefault(kind, {})
                                         for kind in kinds]
        steps = self._ordered_steps(hints)
        defaults = (self._defaults if steps is self._steps
                    else self._cost_defaults(steps))
        return steps, [hints.algorithm_for_step(index) or default
                       for index, default in enumerate(defaults)]

    def _cost_defaults(self, steps: List[_PreparedStep]) -> List[JoinAlgorithm]:
        """The cost-based algorithm of each join of *steps*, in that order:
        each step's estimated left input is the output of the ones before."""
        algorithms: List[JoinAlgorithm] = []
        left_cardinality = self._cardinality
        for prepared in steps:
            join_type = prepared.step.join_type
            right_cardinality = prepared.cardinality
            numeric = prepared.key is not None and prepared.key.domain in _NUMERIC_DOMAINS
            algorithms.append(choose_algorithm(JoinCostInput(
                left_cardinality, right_cardinality, join_type,
                prepared.key_is_indexed, numeric)))
            if not join_type.keyed:
                estimate = left_cardinality * max(1, right_cardinality)
            elif join_type.filters_by_existence:
                estimate = left_cardinality
            else:
                estimate = max(left_cardinality, right_cardinality)
            left_cardinality = max(1, estimate)
        return algorithms

    def _ordered_steps(self, hints: HintSet) -> List[_PreparedStep]:
        """Apply the JOIN_ORDER hint when it yields a valid left-deep chain:
        every step joins after each alias its ON condition reads."""
        steps = self._steps
        if not hints.join_order or len(steps) < 2:
            return steps
        base_alias = self._query.base.alias
        aliases = {base_alias} | {step.alias for step in steps}
        desired = [alias for alias in hints.join_order if alias in aliases]
        if not desired or desired[0] != base_alias:
            return steps
        remaining = {step.alias: step for step in steps}
        available = {base_alias}
        ordered: List[_PreparedStep] = []
        for alias in desired[1:]:
            step = remaining.get(alias)
            if step is None:
                continue
            if not step.depends_on <= available:
                return steps
            ordered.append(step)
            available.add(alias)
            del remaining[alias]
        # Append any steps the hint did not mention, keeping original order.
        for step in steps:
            if step.alias in remaining:
                if not step.depends_on <= available:
                    return steps
                ordered.append(step)
                available.add(step.alias)
        return ordered

    def _build_join(self, left: PhysicalOperator, decision: JoinDecision,
                    compiler: Compiler) -> Join:
        prepared = decision.step
        right: PhysicalOperator = prepared.scan
        if decision.trigger.materialization:
            right = Materialize(right)
        return Join(
            left=left,
            right=right,
            join_type=prepared.step.join_type,
            algorithm=decision.algorithm,
            key=prepared.key,
            hooks=self.planner.hooks,
            extra_condition=prepared.step.extra_condition,
            compiler=compiler,
            triggers=decision.execution_triggers,
        )

    def _subquery_runner(self, hints: HintSet) -> Callable[[QuerySpec], List[ExecRow]]:
        """Runner for the uncorrelated subqueries of one plan.

        Serves IN, EXISTS and scalar subqueries wherever they appear: WHERE,
        SELECT, ORDER BY and join conditions.  Each subquery is planned and
        run at most once per plan, on first evaluation: a subquery that is
        never evaluated never runs, so it cannot fire a seeded bug.  A nested
        subquery gets its own memo through its own plan.
        """
        # Keyed by identity: the plan's expressions hold every subquery, so
        # no id is reused while the plan exists.
        memo: Dict[int, List[ExecRow]] = {}
        planner = self.planner

        def run(subquery: QuerySpec) -> List[ExecRow]:
            rows = memo.get(id(subquery))
            if rows is None:
                rows = list(planner.plan(subquery, hints).rows())
                memo[id(subquery)] = rows
            return rows

        return run


def _switch_context(hints: HintSet) -> Hashable:
    """What of *hints* a planned trigger reads besides the algorithm."""
    return hints.switches, hints.join_cache_level


def _planned_trigger(prepared: _PreparedStep, algorithm: JoinAlgorithm,
                     hints: HintSet) -> TriggerContext:
    """The trigger context of *prepared*'s join running *algorithm* under
    *hints*: a function of the step's join type and key domain, the
    algorithm, and the hint set's switches and join-cache level."""
    join_type = prepared.step.join_type
    subquery = join_type.filters_by_existence
    return TriggerContext(
        algorithm=algorithm,
        join_type=join_type,
        key_domain=None if prepared.key is None else prepared.key.domain,
        materialization=hints.switch("materialization") and subquery,
        semijoin_transform=hints.switch("semijoin"),
        join_cache_level=hints.join_cache_level,
        derived_from_subquery=subquery,
        disabled_switches=frozenset(
            name for name, _default in hints.switches if not hints.switch(name)),
    )


def _evaluated_expressions(query: QuerySpec) -> Iterator[Expression]:
    """Every expression a plan of *query* evaluates, in no set order."""
    for step in query.joins:
        if step.extra_condition is not None:
            yield step.extra_condition
    if query.where is not None:
        yield query.where
    yield from (item.expression for item in query.select)
    yield from (item.expression for item in query.order_by)


def _single_alias(conjunct: Expression,
                  scans: Dict[str, PhysicalOperator]) -> Optional[str]:
    """The alias whose scan alone can evaluate *conjunct*, or None.

    That is the one alias every column reference of *conjunct* qualifies,
    when each names a column of that alias's scan and *conjunct* holds no
    subquery.
    """
    references = conjunct.references()
    aliases = {table for table, _ in references}
    if len(aliases) != 1 or contains_subquery(conjunct):
        return None
    (alias,) = aliases
    scan = scans.get(alias)
    if scan is None:
        return None
    columns = set(scan.output_columns())
    if all(f"{alias}.{column}" in columns for _, column in references):
        return alias
    return None


_UNSEEN = object()


class _PlanCompiler(Compiler):
    """One plan's compiler: reuses its prepared query's subquery-free closures.

    *closures* maps (expression identity, layout) -- or, for a compiled row,
    (the tuple of identities, layout) -- to its closure, or to None when the
    closure holds a subquery and must be compiled with each plan's runner.
    """

    def __init__(self, closures: Dict[Tuple[Any, Tuple[str, ...]], Optional[Callable]],
                 subqueries: SubqueryRunner) -> None:
        super().__init__(subqueries)
        self._closures = closures

    def _reuse(self, key: Tuple[Any, Tuple[str, ...]],
               expressions: Sequence[Expression],
               build: Callable[[], Callable]) -> Callable:
        closure = self._closures.get(key, _UNSEEN)
        if closure is None:
            return build()
        if closure is _UNSEEN:
            closure = build()
            shareable = not any(map(contains_subquery, expressions))
            self._closures[key] = closure if shareable else None
        return closure

    def expression(self, expression: Expression, layout: Layout) -> Compiled:
        return self._reuse(
            (id(expression), tuple(layout)), (expression,),
            lambda: Compiler.expression(self, expression, layout))

    def row(self, expressions: Sequence[Expression],
            layout: Layout) -> Callable[[ExecRow], ExecRow]:
        return self._reuse(
            (tuple(map(id, expressions)), tuple(layout)), expressions,
            lambda: Compiler.row(self, expressions, layout))
