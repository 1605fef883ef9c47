"""Tests for the bitmap ground-truth oracle, including the Table 2 rules."""

import pytest

from repro.dsg import DSG, DSGConfig
from repro.dsg.ground_truth import GroundTruth
from repro.engine import Relation, ResultSet, reference_engine
from repro.expr import ColumnRef, column, eq, lit
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef


@pytest.fixture(scope="module")
def dsg():
    return DSG(DSGConfig(dataset="shopping", dataset_rows=100, seed=21))


def two_table_query(dsg, join_type, project_right=True):
    hub = dsg.ndb.hub_table
    users = next(t.name for t in dsg.ndb.tables
                 if set(t.implicit_key) == {"userId"} and not t.is_hub)
    select = [SelectItem(column(hub, "orderId"))]
    if project_right and join_type.exposes_right_columns:
        select.append(SelectItem(column(users, "userName")))
    return QuerySpec(
        base=TableRef(hub, hub),
        joins=[JoinStep(TableRef(users, users), join_type,
                        left_key=ColumnRef(hub, "userId"),
                        right_key=ColumnRef(users, "userId"))],
        select=select,
    )


class TestBitmapRules:
    def test_inner_join_bitmap_is_intersection(self, dsg):
        oracle = dsg.oracle
        query = two_table_query(dsg, JoinType.INNER)
        bits = oracle.join_bitmap(query)
        hub_bits = dsg.ndb.bitmap.bitmap(query.base.table)
        users_bits = dsg.ndb.bitmap.bitmap(query.joins[0].table.table)
        assert bits == (hub_bits & users_bits)

    def test_left_outer_keeps_base_bits(self, dsg):
        query = two_table_query(dsg, JoinType.LEFT_OUTER)
        bits = dsg.oracle.join_bitmap(query)
        assert bits == dsg.ndb.bitmap.bitmap(query.base.table)

    def test_right_outer_takes_right_bits(self, dsg):
        query = two_table_query(dsg, JoinType.RIGHT_OUTER)
        bits = dsg.oracle.join_bitmap(query)
        assert bits == dsg.ndb.bitmap.bitmap(query.joins[0].table.table)

    def test_anti_join_uses_negation(self, dsg):
        query = two_table_query(dsg, JoinType.ANTI, project_right=False)
        bits = dsg.oracle.join_bitmap(query)
        hub_bits = dsg.ndb.bitmap.bitmap(query.base.table)
        users_bits = dsg.ndb.bitmap.bitmap(query.joins[0].table.table)
        assert bits == (hub_bits & ~users_bits)

    def test_full_outer_is_union(self, dsg):
        query = two_table_query(dsg, JoinType.FULL_OUTER)
        bits = dsg.oracle.join_bitmap(query)
        hub_bits = dsg.ndb.bitmap.bitmap(query.base.table)
        users_bits = dsg.ndb.bitmap.bitmap(query.joins[0].table.table)
        assert bits == (hub_bits | users_bits)

    def test_cross_join_marks_subset_verification(self, dsg):
        query = two_table_query(dsg, JoinType.CROSS)
        query.joins[0] = JoinStep(query.joins[0].table, JoinType.CROSS)
        truth = dsg.oracle.compute(query)
        assert truth.mode is Relation.SUBSET


class TestGroundTruthMatching:
    def test_full_set_match_semantics(self):
        truth = GroundTruth(ResultSet(["a"], [(1,), (2,)]), Relation.SET_EQUAL, [])
        assert truth.matches(ResultSet(["a"], [(2,), (1,), (1,)]))
        assert not truth.matches(ResultSet(["a"], [(1,)]))
        assert not truth.matches(ResultSet(["a"], [(1,), (2,), (3,)]))

    def test_subset_match_semantics(self):
        truth = GroundTruth(ResultSet(["a"], [(1,)]), Relation.SUBSET, [])
        assert truth.matches(ResultSet(["a"], [(1,), (5,)]))
        assert not truth.matches(ResultSet(["a"], [(5,)]))

    def test_oracle_applies_filters_and_projection(self, dsg):
        query = two_table_query(dsg, JoinType.INNER)
        query.where = eq(column(query.joins[0].table.alias, "userName"), lit("Tom"))
        truth = dsg.oracle.compute(query)
        assert all(row[1] == "Tom" for row in truth.result.rows)

    def test_oracle_matches_clean_engine_on_figure3_style_query(self, dsg):
        engine = reference_engine(dsg.database)
        for join_type in (JoinType.INNER, JoinType.LEFT_OUTER, JoinType.SEMI,
                          JoinType.ANTI):
            query = two_table_query(dsg, join_type,
                                    project_right=join_type.exposes_right_columns)
            truth = dsg.oracle.compute(query)
            assert truth.matches(engine.execute(query)), join_type

    def test_ground_truth_row_ids_reference_wide_rows(self, dsg):
        query = two_table_query(dsg, JoinType.INNER)
        truth = dsg.oracle.compute(query)
        assert truth.wide_row_ids
        assert max(truth.wide_row_ids) < len(dsg.ndb.wide)
