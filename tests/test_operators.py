"""Tests for scan, filter, project/aggregate, sort, limit and materialize."""

import pytest

from repro.backends import SQLiteBackend
from repro.engine import reference_engine
from repro.expr import ColumnRef, column, eq, lit
from repro.plan import (
    AggregateFunction,
    Filter,
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


class TestTableScan:
    def test_scan_emits_qualified_columns(self, orders_db):
        scan = TableScan(orders_db, "users", "u")
        rows = scan.execute()
        assert len(rows) == 3
        assert set(rows[0]) == {"u.RowID", "u.userId", "u.userName"}
        assert scan.output_columns() == ["u.RowID", "u.userId", "u.userName"]

    def test_scan_respects_alias(self, orders_db):
        scan = TableScan(orders_db, "users", "alias1")
        assert all(key.startswith("alias1.") for key in scan.execute()[0])


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
        values = sorted(str(row["userId"]) for row in project.execute())
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
        rows = project.execute()
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
        rows = {row["goodsName"]: row["max_1"] for row in project.execute()}
        assert rows == {"book": 15, "food": 5, "flower": 10}

    def test_aggregate_on_empty_input(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        filtered = Filter(scan, eq(column("o", "userId"), lit("nobody")))
        project = Project(
            filtered,
            [SelectItem(column("o", "goodsId"), aggregate=AggregateFunction.COUNT),
             SelectItem(column("o", "goodsId"), aggregate=AggregateFunction.MIN)],
        )
        rows = project.execute()
        assert rows[0]["count_0"] == 0
        assert rows[0]["min_1"] is NULL

    def test_sum_and_avg(self, orders_db):
        scan = TableScan(orders_db, "goods", "g")
        project = Project(
            scan,
            [SelectItem(column("g", "price"), aggregate=AggregateFunction.SUM),
             SelectItem(column("g", "price"), aggregate=AggregateFunction.AVG)],
        )
        row = project.execute()[0]
        assert row["sum_0"] == 30
        assert row["avg_1"] == 10


class TestSortAndLimit:
    def test_sort_ascending_with_nulls_first(self, orders_db):
        scan = TableScan(orders_db, "orders", "o")
        ordered = Sort(scan, [OrderItem(column("o", "userId"))]).execute()
        assert ordered[0]["o.userId"] is NULL

    def test_sort_descending(self, orders_db):
        scan = TableScan(orders_db, "goods", "g")
        ordered = Sort(scan, [OrderItem(column("g", "price"), descending=True)]).execute()
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
        columnar = reference_engine(orders_db, executor="columnar")
        assert list(columnar.execute(query).rows) == expected
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
