"""Tests for in-memory storage and the Database facade."""

from decimal import Decimal

import pytest

from repro.engine import reference_engine
from repro.errors import CatalogError, ExecutionError
from repro.sqlvalue import NULL
from repro.storage import TableData


class TestTableData:
    def test_insert_fills_missing_with_null(self, orders_schema):
        table = TableData(orders_schema.table("users"))
        row = table.insert({"userId": "u1"})
        assert row["userName"] is NULL
        assert len(table) == 1

    def test_insert_rejects_unknown_columns(self, orders_schema):
        table = TableData(orders_schema.table("users"))
        with pytest.raises(ExecutionError):
            table.insert({"nope": 1})

    def test_update_cell_and_bounds(self, orders_schema):
        table = TableData(orders_schema.table("users"))
        table.insert({"userId": "u1", "userName": "Tom"})
        table.update_cell(0, "userName", "Bob")
        assert table.rows[0]["userName"] == "Bob"
        with pytest.raises(ExecutionError):
            table.update_cell(5, "userName", "x")
        with pytest.raises(ExecutionError):
            table.update_cell(0, "missing", "x")

    @pytest.mark.parametrize("nan", [float("nan"), float("-nan"), Decimal("NaN"),
                                     Decimal("-NaN"), Decimal("sNaN")],
                             ids=repr)
    def test_nan_is_refused_on_insert_and_update(self, orders_schema, nan):
        table = TableData(orders_schema.table("goods"))
        with pytest.raises(ExecutionError, match="NaN"):
            table.insert({"RowID": 0, "goodsId": nan})
        assert len(table) == 0
        table.insert({"RowID": 0, "goodsId": 1, "price": float("inf")})
        with pytest.raises(ExecutionError, match="NaN"):
            table.update_cell(0, "price", nan)
        assert table.rows[0]["price"] == float("inf")

    def test_distinct_values_skips_null(self, orders_db):
        users = orders_db.table("orders")
        values = users.distinct_values("userId")
        assert NULL not in values
        assert set(values) == {"str1", "str2", "str3"}

    def test_find_rows_ignores_null(self, orders_db):
        orders = orders_db.table("orders")
        assert orders.find_rows("userId", "str1") == [0, 1, 2]
        assert orders.find_rows("userId", NULL) == []

    def test_find_rows_matches_numbers_by_value(self, orders_db):
        goods = orders_db.table("goods")
        assert goods.find_rows("goodsId", 1111) == [0]
        assert goods.find_rows("goodsId", 1111.0) == [0]
        assert goods.find_rows("goodsId", Decimal("1111.00")) == [0]
        assert goods.find_rows("goodsId", 9999) == []

    def test_column_values_in_row_order(self, orders_db):
        orders = orders_db.table("orders")
        assert orders.column_values("goodsId") == [1111, 1112, 1111, 1111,
                                                   1113, 9999, 1112]
        assert orders.column_values("userId")[-1] is NULL
        with pytest.raises(ExecutionError):
            orders.column_values("missing")

    def test_rows_as_tuples_follow_the_requested_columns(self, orders_db):
        users = orders_db.table("users")
        assert users.rows_as_tuples()[0] == (0, "str1", "Tom")
        assert users.rows_as_tuples(["userName", "RowID"]) == [
            ("Tom", 0), ("Peter", 1), ("Bob", 2)]
        with pytest.raises(ExecutionError):
            users.rows_as_tuples(["missing"])

    def test_copy_is_independent(self, orders_db):
        original = orders_db.table("users")
        clone = original.copy()
        clone.update_cell(0, "userName", "changed")
        assert original.rows[0]["userName"] == "Tom"


class TestDatabase:
    def test_row_counts(self, orders_db):
        assert orders_db.row_count("orders") == 7
        assert orders_db.total_rows() == 13

    def test_unknown_table(self, orders_db):
        with pytest.raises(CatalogError):
            orders_db.table("missing")

    def test_copy_isolates_rows(self, orders_db):
        clone = orders_db.copy()
        clone.update_cell("users", 0, "userName", "changed")
        assert orders_db.table("users").rows[0]["userName"] == "Tom"

    def test_insert_is_visible_to_the_next_query(self, orders_db,
                                                 orders_join_query):
        engine = reference_engine(orders_db)

        def tom_orders():
            return sorted(order for order, name
                          in engine.execute(orders_join_query).rows
                          if name == "Tom")

        assert tom_orders() == ["0001", "0002"]
        orders_db.insert("orders", {"RowID": 7, "orderId": "0006",
                                    "goodsId": 1111, "userId": "str1"})
        assert tom_orders() == ["0001", "0002", "0006"]
