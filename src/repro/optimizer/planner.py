"""The planner: logical :class:`QuerySpec` + :class:`HintSet` -> physical plan.

A plan is compiled as it is built: every operator resolves its column slots
and compiles its expressions against its input layout in its constructor, so
executing the plan does only per-row work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.schema import DatabaseSchema
from repro.optimizer.cost import JoinCostInput, choose_algorithm
from repro.optimizer.hints import HintSet, default_hints
from repro.plan.joins import Join, JoinKeySpec
from repro.plan.logical import JoinStep, JoinType, QuerySpec
from repro.plan.operators import (
    Filter,
    Limit,
    Materialize,
    Project,
    Sort,
    TableScan,
)
from repro.plan.physical import (
    ExecutionHooks,
    PhysicalOperator,
    TriggerContext,
)
from repro.sqlvalue.casts import comparison_domain
from repro.sqlvalue.datatypes import TypeCategory
from repro.storage.database import Database


class Planner:
    """Builds executable physical plans for one database instance."""

    def __init__(self, database: Database, hooks: Optional[ExecutionHooks] = None) -> None:
        self.database = database
        self.schema: DatabaseSchema = database.schema
        self.hooks = hooks or ExecutionHooks()

    # ------------------------------------------------------------------ public

    def plan(self, query: QuerySpec, hints: Optional[HintSet] = None) -> PhysicalOperator:
        """Build the physical plan for *query* under *hints*."""
        hints = hints or default_hints()
        query.validate()
        steps = self._ordered_steps(query, hints)
        alias_to_table = {ref.alias: ref.table for ref in query.table_refs}
        operator: PhysicalOperator = TableScan(
            self.database, query.base.table, query.base.alias
        )
        left_cardinality = self.database.row_count(query.base.table)
        # Mirror real optimizers: a WHERE clause over the driving table lowers
        # the estimated outer cardinality, which can flip the cost-based join
        # algorithm choice (this is what gives TLP's partition queries plans
        # that differ from the unpartitioned query).
        if query.where is not None:
            referenced_aliases = {t for t, _ in query.where.references() if t}
            if query.base.alias in referenced_aliases:
                left_cardinality = max(1, int(left_cardinality * 0.4))
        subqueries = self._subquery_executor(hints)
        for index, step in enumerate(steps):
            operator, left_cardinality = self._plan_join(
                operator, left_cardinality, step, index, hints, alias_to_table,
                subqueries,
            )
        if query.where is not None:
            operator = Filter(operator, query.where, subqueries)
        operator = Project(
            operator,
            query.select,
            group_by=query.group_by,
            distinct=query.distinct,
            subquery_executor=subqueries,
        )
        if query.order_by:
            operator = Sort(operator, query.order_by, subqueries)
        if query.limit is not None:
            operator = Limit(operator, query.limit)
        return operator

    # ------------------------------------------------------------------ helpers

    def _ordered_steps(self, query: QuerySpec, hints: HintSet) -> List[JoinStep]:
        """Apply the JOIN_ORDER hint when it yields a valid left-deep chain."""
        steps = list(query.joins)
        if not hints.join_order or len(steps) < 2:
            return steps
        desired = [alias for alias in hints.join_order if alias in query.aliases]
        if not desired or desired[0] != query.base.alias:
            return steps
        remaining = {step.table.alias: step for step in steps}
        available = {query.base.alias}
        ordered: List[JoinStep] = []
        for alias in desired[1:]:
            step = remaining.get(alias)
            if step is None:
                continue
            left_alias = None if step.left_key is None else step.left_key.table
            if left_alias is not None and left_alias not in available:
                return steps
            ordered.append(step)
            available.add(alias)
            del remaining[alias]
        # Append any steps the hint did not mention, keeping original order.
        for step in steps:
            if step.table.alias in remaining:
                left_alias = None if step.left_key is None else step.left_key.table
                if left_alias is not None and left_alias not in available:
                    return steps
                ordered.append(step)
                available.add(step.table.alias)
        return ordered

    def _key_spec(
        self, step: JoinStep, alias_to_table: Dict[str, str]
    ) -> Optional[JoinKeySpec]:
        if step.join_type is JoinType.CROSS or step.left_key is None:
            return None
        left_table = alias_to_table[step.left_key.table]
        right_table = alias_to_table[step.right_key.table]
        left_dtype = self.schema.table(left_table).column(step.left_key.column).dtype
        right_dtype = self.schema.table(right_table).column(step.right_key.column).dtype
        domain = comparison_domain(left_dtype, right_dtype)
        return JoinKeySpec(
            left_column=f"{step.left_key.table}.{step.left_key.column}",
            right_column=f"{step.right_key.table}.{step.right_key.column}",
            domain=domain,
        )

    def _right_key_indexed(self, step: JoinStep, alias_to_table: Dict[str, str]) -> bool:
        if step.right_key is None:
            return False
        table = self.schema.table(alias_to_table[step.right_key.table])
        key_columns = set(table.primary_key) | set(table.implicit_key)
        for key in table.keys:
            key_columns.update(key.columns)
        return step.right_key.column in key_columns

    def _plan_join(
        self,
        left: PhysicalOperator,
        left_cardinality: int,
        step: JoinStep,
        step_index: int,
        hints: HintSet,
        alias_to_table: Dict[str, str],
        subqueries: Callable,
    ) -> Tuple[PhysicalOperator, int]:
        right_table = step.table.table
        right_cardinality = self.database.row_count(right_table)
        right: PhysicalOperator = TableScan(self.database, right_table, step.table.alias)
        key_spec = self._key_spec(step, alias_to_table)
        numeric_key = key_spec is not None and key_spec.domain in (
            TypeCategory.DECIMAL,
            TypeCategory.FLOAT,
            TypeCategory.INTEGER,
        )
        algorithm = hints.algorithm_for_step(step_index)
        if algorithm is None:
            algorithm = choose_algorithm(
                JoinCostInput(
                    left_cardinality=left_cardinality,
                    right_cardinality=right_cardinality,
                    join_type=step.join_type,
                    right_key_is_indexed=self._right_key_indexed(step, alias_to_table),
                    key_is_numeric=numeric_key,
                )
            )
        materialization = hints.switch("materialization") and step.join_type in (
            JoinType.SEMI,
            JoinType.ANTI,
        )
        if materialization:
            right = Materialize(right)
        disabled = frozenset(
            name for name, _default in hints.switches if not hints.switch(name)
        )
        trigger = TriggerContext(
            algorithm=algorithm,
            join_type=step.join_type,
            key_domain=None if key_spec is None else key_spec.domain,
            materialization=materialization,
            semijoin_transform=hints.switch("semijoin"),
            join_cache_level=hints.join_cache_level,
            derived_from_subquery=step.join_type in (JoinType.SEMI, JoinType.ANTI),
            converted_from=None,
            disabled_switches=disabled,
        )
        join = Join(
            left=left,
            right=right,
            join_type=step.join_type,
            algorithm=algorithm,
            key=key_spec,
            hooks=self.hooks,
            extra_condition=step.extra_condition,
            trigger=trigger,
            subquery_executor=subqueries,
        )
        if step.join_type is JoinType.CROSS:
            estimate = left_cardinality * max(1, right_cardinality)
        elif step.join_type in (JoinType.SEMI, JoinType.ANTI):
            estimate = left_cardinality
        else:
            estimate = max(left_cardinality, right_cardinality)
        return join, max(1, estimate)

    def _subquery_executor(self, hints: HintSet) -> Callable:
        """Executor for the uncorrelated subqueries of one plan.

        Serves IN, EXISTS and scalar subqueries wherever they appear: WHERE,
        SELECT, ORDER BY and join conditions.  Each subquery is planned and
        run at most once per plan, on first evaluation: a subquery that is
        never evaluated never runs, so it cannot fire a seeded bug.  A nested
        subquery gets its own memo through its own :meth:`plan` call.
        """
        # Keyed by identity: the plan's expressions hold every subquery, so
        # no id is reused while the plan exists.
        memo: Dict[int, List[tuple]] = {}

        def run(subquery: QuerySpec) -> List[tuple]:
            rows = memo.get(id(subquery))
            if rows is None:
                rows = list(self.plan(subquery, hints).rows())
                memo[id(subquery)] = rows
            return rows

        return run
