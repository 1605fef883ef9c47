"""Tests for the logical query model (its SQL text is tested in test_sqlrender)."""

import pytest

from repro.errors import PlanError
from repro.expr import ColumnRef, column
from repro.plan import (
    AggregateFunction,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    TableRef,
)


def make_query(join_type=JoinType.INNER) -> QuerySpec:
    return QuerySpec(
        base=TableRef("orders", "orders"),
        joins=[
            JoinStep(
                TableRef("users", "users"),
                join_type,
                left_key=ColumnRef("orders", "userId"),
                right_key=ColumnRef("users", "userId"),
            )
        ],
        select=[SelectItem(column("orders", "orderId"))],
    )


class TestJoinType:
    def test_outer_classification(self):
        assert JoinType.LEFT_OUTER.is_outer
        assert JoinType.FULL_OUTER.is_outer
        assert not JoinType.SEMI.is_outer

    def test_exposure(self):
        assert JoinType.INNER.exposes_right_columns
        assert not JoinType.ANTI.exposes_right_columns


class TestJoinStep:
    def test_equi_join_requires_keys(self):
        with pytest.raises(PlanError):
            JoinStep(TableRef("users", "users"), JoinType.INNER)

    def test_cross_join_needs_no_keys(self):
        step = JoinStep(TableRef("users", "users"), JoinType.CROSS)
        assert step.left_key is None and step.right_key is None


class TestQuerySpec:
    def test_accessors(self):
        query = make_query()
        assert query.tables == ["orders", "users"]
        assert query.aliases == ["orders", "users"]
        assert query.alias_of("users") == "users"
        assert query.join_types == [JoinType.INNER]

    def test_alias_of_unknown_table(self):
        with pytest.raises(PlanError):
            make_query().alias_of("missing")

    def test_validation_catches_duplicate_aliases(self):
        query = make_query()
        query.joins.append(
            JoinStep(TableRef("users", "users"), JoinType.INNER,
                     left_key=ColumnRef("orders", "userId"),
                     right_key=ColumnRef("users", "userId"))
        )
        with pytest.raises(PlanError):
            query.validate()

    def test_validation_requires_projection(self):
        query = make_query()
        query.select = []
        with pytest.raises(PlanError):
            query.validate()

    def test_validation_requires_connected_left_key(self):
        query = make_query()
        query.joins[0] = JoinStep(
            TableRef("users", "users"), JoinType.INNER,
            left_key=ColumnRef("goods", "goodsId"),
            right_key=ColumnRef("users", "userId"),
        )
        with pytest.raises(PlanError):
            query.validate()


class TestSelectItem:
    def test_output_names(self):
        plain = SelectItem(column("t", "a"))
        aliased = SelectItem(column("t", "a"), alias="x")
        agg = SelectItem(column("t", "a"), aggregate=AggregateFunction.MIN)
        assert plain.output_name(0) == "a"
        assert aliased.output_name(0) == "x"
        assert agg.output_name(2) == "min_2"

