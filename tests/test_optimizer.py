"""Tests for hints, the cost model and the planner."""

import pytest

from repro.errors import HintError
from repro.expr import ColumnRef, column, eq, lit
from repro.optimizer import (
    HintSet,
    JoinCostInput,
    Planner,
    choose_algorithm,
    default_hints,
    estimate_cost,
    hash_join_hints,
    join_order_hints,
    nested_loop_hints,
    no_materialization_hints,
    standard_hint_sets,
)
from repro.optimizer.hints import join_buffer_minimal_hints
from repro.plan import (
    Filter,
    Join,
    JoinAlgorithm,
    JoinStep,
    JoinType,
    Project,
    QuerySpec,
    SelectItem,
    TableRef,
)


class TestHintSet:
    def test_default_switches(self):
        hints = default_hints()
        assert hints.switch("materialization") is True
        assert hints.switch("semijoin") is True

    def test_with_switch_override(self):
        hints = no_materialization_hints()
        assert hints.switch("materialization") is False
        assert hints.switch("semijoin") is True

    def test_unknown_switch_rejected(self):
        with pytest.raises(HintError):
            default_hints().switch("does_not_exist")
        with pytest.raises(HintError):
            HintSet(switches=(("does_not_exist", True),))

    def test_join_cache_level_bounds(self):
        with pytest.raises(HintError):
            HintSet(join_cache_level=0)
        assert join_buffer_minimal_hints(1).join_cache_level == 1

    def test_algorithm_for_step(self):
        hints = HintSet(join_algorithm=JoinAlgorithm.HASH,
                        per_step_algorithms=((1, JoinAlgorithm.SORT_MERGE),))
        assert hints.algorithm_for_step(0) is JoinAlgorithm.HASH
        assert hints.algorithm_for_step(1) is JoinAlgorithm.SORT_MERGE

    def test_render_comment(self):
        assert "hash_join()" in hash_join_hints().render_comment()
        assert "JOIN_ORDER" in join_order_hints(["a", "b"]).render_comment()
        assert "materialization=off" in no_materialization_hints().render_comment()
        assert default_hints().render_comment() == "default_plan()"

    def test_standard_hint_sets_unique_names(self):
        names = [hints.name for hints in standard_hint_sets()]
        assert len(names) == len(set(names))
        assert "default" in names


class TestCostModel:
    def test_small_inner_prefers_nested_loop_family(self):
        facts = JoinCostInput(10, 5, JoinType.INNER, False, True)
        assert choose_algorithm(facts) in (
            JoinAlgorithm.BLOCK_NESTED_LOOP, JoinAlgorithm.NESTED_LOOP
        )

    def test_large_inputs_prefer_hash(self):
        facts = JoinCostInput(5000, 4000, JoinType.INNER, False, True)
        assert choose_algorithm(facts) is JoinAlgorithm.HASH

    def test_indexed_inner_prefers_index_join(self):
        facts = JoinCostInput(100, 5000, JoinType.INNER, True, True)
        assert choose_algorithm(facts) is JoinAlgorithm.INDEX_NESTED_LOOP

    def test_cross_join_uses_nested_loop(self):
        facts = JoinCostInput(100, 100, JoinType.CROSS, False, False)
        assert choose_algorithm(facts) is JoinAlgorithm.NESTED_LOOP

    def test_cost_monotone_in_cardinality(self):
        small = JoinCostInput(10, 10, JoinType.INNER, False, True)
        large = JoinCostInput(1000, 1000, JoinType.INNER, False, True)
        for algorithm in JoinAlgorithm:
            assert estimate_cost(algorithm, small) <= estimate_cost(algorithm, large)


def orders_users_query() -> QuerySpec:
    return QuerySpec(
        base=TableRef("orders", "orders"),
        joins=[
            JoinStep(TableRef("users", "users"), JoinType.INNER,
                     left_key=ColumnRef("orders", "userId"),
                     right_key=ColumnRef("users", "userId")),
            JoinStep(TableRef("goods", "goods"), JoinType.SEMI,
                     left_key=ColumnRef("orders", "goodsId"),
                     right_key=ColumnRef("goods", "goodsId")),
        ],
        select=[SelectItem(column("orders", "orderId")),
                SelectItem(column("users", "userName"))],
    )


class TestPlanner:
    def test_plan_structure(self, orders_db):
        planner = Planner(orders_db)
        plan = planner.plan(orders_users_query())
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Join)

    def test_hint_forces_algorithm(self, orders_db):
        planner = Planner(orders_db)
        plan = planner.plan(orders_users_query(), hash_join_hints())
        joins = [op for op in _walk(plan) if isinstance(op, Join)]
        assert joins and all(j.algorithm is JoinAlgorithm.HASH for j in joins)

    def test_different_hints_give_different_plans(self, orders_db):
        planner = Planner(orders_db)
        query = orders_users_query()
        explain_hash = planner.plan(query, hash_join_hints()).explain()
        explain_nl = planner.plan(query, nested_loop_hints()).explain()
        assert explain_hash != explain_nl

    def test_all_standard_hint_sets_plan_and_execute(self, orders_db):
        planner = Planner(orders_db)
        query = orders_users_query()
        results = set()
        for hints in standard_hint_sets():
            plan = planner.plan(query, hints)
            columns = plan.output_columns()
            rows = frozenset(tuple(sorted(zip(columns, row))) for row in plan.rows())
            results.add(rows)
        assert len(results) == 1  # a correct engine is hint-insensitive

    def test_join_order_hint_reorders_when_valid(self, orders_db):
        planner = Planner(orders_db)
        query = orders_users_query()
        hints = join_order_hints(["orders", "goods", "users"])
        plan = planner.plan(query, hints)
        joins = [op for op in _walk(plan) if isinstance(op, Join)]
        # The outermost join should now be the users join (goods applied first).
        assert "users" in joins[0].describe()

    def test_invalid_join_order_hint_is_ignored(self, orders_db):
        planner = Planner(orders_db)
        query = orders_users_query()
        hints = join_order_hints(["goods", "orders", "users"])  # wrong base
        baseline = planner.plan(query, default_hints()).explain()
        assert planner.plan(query, hints).explain() == baseline

    def test_where_filter_is_planned(self, orders_db):
        planner = Planner(orders_db)
        query = orders_users_query()
        query.where = eq(column("orders", "orderId"), lit("0001"))
        plan = planner.plan(query)
        assert any(isinstance(op, Filter) for op in _walk(plan))

    def test_semijoin_materialization_switch(self, orders_db):
        from repro.plan import Materialize

        planner = Planner(orders_db)
        query = orders_users_query()
        with_mat = planner.plan(query, default_hints())
        without_mat = planner.plan(query, no_materialization_hints())
        assert any(isinstance(op, Materialize) for op in _walk(with_mat))
        assert not any(isinstance(op, Materialize) for op in _walk(without_mat))


def _walk(operator):
    yield operator
    for child in operator.children():
        yield from _walk(child)
