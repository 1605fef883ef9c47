"""Tests for scan, filter, project/aggregate, sort, limit and materialize."""

from decimal import Decimal

import pytest

from repro.backends import SQLiteBackend
from repro.engine import SIM_MYSQL, SIM_TIDB, Engine, reference_engine
from repro.expr import ColumnRef, InSubquery, column, eq, lit
from repro.optimizer import default_hints, merge_join_hints
from repro.optimizer.planner import Planner
from repro.plan import (
    AggregateFunction,
    Filter,
    JoinStep,
    JoinType,
    Limit,
    Materialize,
    OrderItem,
    Project,
    QuerySpec,
    SelectItem,
    Sort,
    TableRef,
    TableScan,
)
from repro.errors import ExecutionError
from repro.sqlvalue import NULL
from repro.storage import Database


def named(operator):
    """The operator's tuple rows, each keyed by its output column names."""
    columns = operator.output_columns()
    return [dict(zip(columns, row)) for row in operator.execute()]


class TestTableScan:
    def test_scan_emits_qualified_columns(self, orders_db):
        scan = TableScan(orders_db, "users", "u")
        rows = named(scan)
        assert len(rows) == 3
        assert set(rows[0]) == {"u.RowID", "u.userId", "u.userName"}
        assert scan.output_columns() == ["u.RowID", "u.userId", "u.userName"]
        assert scan.execute()[0] == (0, "str1", "Tom")

    def test_scan_respects_alias(self, orders_db):
        scan = TableScan(orders_db, "users", "alias1")
        assert all(key.startswith("alias1.") for key in named(scan)[0])


class TestFilter:
    def test_filter_keeps_true_rows_only(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        predicate = eq(column("o", "userId"), lit("str1"))
        rows = Filter(scan, predicate).execute()
        assert len(rows) == 3

    def test_filter_drops_unknown_rows(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        predicate = eq(column("o", "userId"), lit("str9"))
        assert Filter(scan, predicate).execute() == []
        null_predicate = eq(column("o", "userId"), lit(NULL))
        assert Filter(scan, null_predicate).execute() == []


class TestProject:
    def test_distinct_projection(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        project = Project(scan, [SelectItem(column("o", "userId"))], distinct=True)
        values = sorted(str(row["userId"]) for row in named(project))
        assert values == ["NULL", "str1", "str2", "str3"]

    def test_non_distinct_projection(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        project = Project(scan, [SelectItem(column("o", "userId"))], distinct=False)
        assert len(project.execute()) == 7

    def test_projection_requires_items(self, orders_db):
        with pytest.raises(ExecutionError):
            Project(TableScan(orders_db, "orders", "o"), [])

    def test_count_aggregate_over_distinct_values(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        project = Project(
            scan,
            [SelectItem(column("o", "goodsId"), aggregate=AggregateFunction.COUNT)],
        )
        rows = named(project)
        assert rows == [{"count_0": 4}]  # 1111, 1112, 1113, 9999 (NULL-free distinct)

    def test_group_by_with_min_max(self, orders_db):
        scan = TableScan(orders_db, "goods", "g")
        project = Project(
            scan,
            [
                SelectItem(column("g", "goodsName")),
                SelectItem(column("g", "price"), aggregate=AggregateFunction.MAX),
            ],
            group_by=[ColumnRef("g", "goodsName")],
        )
        rows = {row["goodsName"]: row["max_1"] for row in named(project)}
        assert rows == {"book": 15, "food": 5, "flower": 10}

    def test_aggregate_on_empty_input(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        filtered = Filter(scan, eq(column("o", "userId"), lit("nobody")))
        project = Project(
            filtered,
            [SelectItem(column("o", "goodsId"), aggregate=AggregateFunction.COUNT),
             SelectItem(column("o", "goodsId"), aggregate=AggregateFunction.MIN)],
        )
        rows = named(project)
        assert rows[0]["count_0"] == 0
        assert rows[0]["min_1"] is NULL

    def test_sum_and_avg(self, orders_db):
        scan = TableScan(orders_db, "goods", "g")
        project = Project(
            scan,
            [SelectItem(column("g", "price"), aggregate=AggregateFunction.SUM),
             SelectItem(column("g", "price"), aggregate=AggregateFunction.AVG)],
        )
        row = named(project)[0]
        assert row["sum_0"] == 30
        assert row["avg_1"] == 10

    def test_sum_and_avg_of_decimal_with_float_are_double(self, orders_schema):
        # MySQL sums DECIMAL with DOUBLE in DOUBLE.
        db = Database(orders_schema)
        db.insert_many("goods", [
            {"RowID": 0, "goodsId": 1, "goodsName": "a", "price": Decimal("1.5")},
            {"RowID": 1, "goodsId": 2, "goodsName": "b", "price": 2.5},
        ])
        query = QuerySpec(
            base=TableRef("goods", "g"),
            select=[SelectItem(column("g", "price"), aggregate=AggregateFunction.SUM),
                    SelectItem(column("g", "price"), aggregate=AggregateFunction.AVG)],
        )
        (row,) = reference_engine(db).execute(query).rows
        assert row == (4.0, 2.0)
        assert [type(value) for value in row] == [float, float]


class TestSortAndLimit:
    def test_sort_ascending_with_nulls_first(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        ordered = named(Sort(scan, [OrderItem(column("o", "userId"))]))
        assert ordered[0]["o.userId"] is NULL

    def test_sort_descending(self, orders_db):
        scan = TableScan(orders_db, "goods", "g")
        ordered = named(Sort(scan, [OrderItem(column("g", "price"), descending=True)]))
        assert [row["g.price"] for row in ordered] == [15, 10, 5]

        # Strings sharing a prefix: the longer one is the larger.
        for index, name in enumerate(["a", "ab", "abc", "b"]):
            orders_db.insert("users", {"RowID": 10 + index, "userId": f"p{index}",
                                       "userName": name})
        query = QuerySpec(
            base=TableRef("users", "users"),
            select=[SelectItem(column("users", "userName"))],
            order_by=[OrderItem(column("users", "userName"), descending=True)],
            distinct=False,
        )
        expected = [("b",), ("abc",), ("ab",), ("a",), ("Tom",), ("Peter",), ("Bob",)]
        assert list(reference_engine(orders_db).execute(query).rows) == expected
        backend = SQLiteBackend()
        try:
            backend.deploy(orders_db)
            assert list(backend.execute(query).result.rows) == expected
        finally:
            backend.close()

    def test_limit(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        assert len(Limit(scan, 2).execute()) == 2
        assert len(Limit(scan, 100).execute()) == 7
        with pytest.raises(ExecutionError):
            Limit(scan, -1)


class TestMaterialize:
    def test_materialize_caches_rows(self, orders_db):
        scan = TableScan(orders_db, "users", "u")
        materialized = Materialize(scan)
        first = list(materialized.rows())
        orders_db.insert("users", {"RowID": 3, "userId": "str4", "userName": "Eve"})
        second = list(materialized.rows())
        assert first == second  # cached copy, unaffected by the later insert

    def test_explain_includes_children(self, orders_db):
        scan = TableScan(orders_db, "users", "u")
        plan = Limit(Materialize(scan), 1)
        text = plan.explain()
        assert "Limit" in text and "Materialize" in text and "TableScan" in text


class TestSubqueryMemo:
    """An uncorrelated subquery runs once per execution, not once per row."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """Every query :meth:`Planner.plan` is called with, in call order."""
        queries = []
        original = Planner.plan

        def counting(planner, query, hints=None):
            queries.append(query)
            return original(planner, query, hints)

        monkeypatch.setattr(Planner, "plan", counting)
        return queries

    @staticmethod
    def goods_in_subquery():
        """Orders whose goodsId is IN an uncorrelated subquery over goods."""
        subquery = QuerySpec(base=TableRef("goods", "g"),
                             select=[SelectItem(column("g", "goodsId"))])
        query = QuerySpec(base=TableRef("orders", "o"),
                          select=[SelectItem(column("o", "orderId"))],
                          where=InSubquery(column("o", "goodsId"), subquery),
                          distinct=False)
        return query, subquery

    def test_subquery_planned_once_per_execute(self, orders_db, planned):
        query, subquery = self.goods_in_subquery()
        engine = reference_engine(orders_db)
        for _ in range(2):
            planned.clear()
            rows = engine.execute(query).rows
            assert sorted(rows) == [("0001",), ("0001",), ("0002",),
                                    ("0003",), ("0003",), ("0005",)]
            assert [q is subquery for q in planned] == [False, True]

    def test_subquery_not_planned_over_an_empty_outer(self, orders_schema,
                                                      planned):
        query, subquery = self.goods_in_subquery()
        database = Database(orders_schema)
        database.insert("goods", {"RowID": 0, "goodsId": 1111,
                                  "goodsName": "book", "price": 15})
        assert list(reference_engine(database).execute(query).rows) == []
        assert not any(q is subquery for q in planned)

    def test_seeded_faults_fire_as_without_the_memo(self, orders_db):
        # orders SEMI JOIN users, filtered by NOT IN over goods ANTI JOIN
        # orders: bug 1 fires in the outer semi-join, bug 5 in the
        # subquery's anti-join.  Rows and ids are pinned from per-row
        # re-execution, before subqueries were memoized.
        subquery = QuerySpec(
            base=TableRef("goods", "g2"),
            joins=[JoinStep(TableRef("orders", "o2"), JoinType.ANTI,
                            left_key=ColumnRef("g2", "goodsId"),
                            right_key=ColumnRef("o2", "goodsId"))],
            select=[SelectItem(column("g2", "goodsId"))],
        )
        query = QuerySpec(
            base=TableRef("orders", "o"),
            joins=[JoinStep(TableRef("users", "u"), JoinType.SEMI,
                            left_key=ColumnRef("o", "userId"),
                            right_key=ColumnRef("u", "userId"))],
            select=[SelectItem(column("o", "orderId"))],
            where=InSubquery(column("o", "goodsId"), subquery, negated=True),
        )
        everything = [("0001",), ("0002",), ("0003",), ("0004",), ("0005",)]
        assert sorted(reference_engine(orders_db).execute(query).rows) == (
            everything[:4])
        mysql = Engine(orders_db, dialect=SIM_MYSQL)
        report = mysql.execute_with_report(query, default_hints())
        assert sorted(report.result.rows) == everything
        assert report.fired_bug_ids == (1, 5)
        tidb = Engine(orders_db, dialect=SIM_TIDB)
        report = tidb.execute_with_report(query, merge_join_hints())
        assert list(report.result.rows) == []
        assert report.fired_bug_ids == (15,)
