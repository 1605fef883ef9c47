"""Tests for in-memory storage, indexes and the Database facade."""

from decimal import Decimal

import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqlvalue import NULL
from repro.storage import HashIndex, OrderedIndex, TableData


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

    def test_copy_is_independent(self, orders_db):
        original = orders_db.table("users")
        clone = original.copy()
        clone.update_cell(0, "userName", "changed")
        assert original.rows[0]["userName"] == "Tom"


class TestHashIndex:
    def test_probe_matches_equal_keys(self, orders_db):
        index = HashIndex(orders_db.table("orders"), "userId")
        assert sorted(index.probe("str1")) == [0, 1, 2]
        assert index.probe("str9") == []

    def test_probe_null_returns_nothing(self, orders_db):
        index = HashIndex(orders_db.table("orders"), "userId")
        assert index.probe(NULL) == []
        assert index.null_row_indices == [6]

    def test_numeric_normalization(self, orders_db):
        index = HashIndex(orders_db.table("goods"), "goodsId")
        assert index.probe(1111.0) == index.probe(1111)

    def test_len_counts_non_null_entries(self, orders_db):
        index = HashIndex(orders_db.table("orders"), "userId")
        assert len(index) == 6


class TestOrderedIndex:
    def test_equal_range(self, orders_db):
        index = OrderedIndex(orders_db.table("orders"), "goodsId")
        assert sorted(index.equal_range(1111)) == [0, 2, 3]

    def test_range_query(self, orders_db):
        index = OrderedIndex(orders_db.table("goods"), "price")
        between = index.range(5, 10)
        assert len(between) == 2

    def test_min_max(self, orders_db):
        index = OrderedIndex(orders_db.table("goods"), "price")
        assert index.min_value() == 5
        assert index.max_value() == 15

    def test_empty_index_min_is_null(self, orders_schema):
        from repro.storage import TableData

        index = OrderedIndex(TableData(orders_schema.table("users")), "userId")
        assert index.min_value() is NULL


class TestDatabase:
    def test_row_counts(self, orders_db):
        assert orders_db.row_count("orders") == 7
        assert orders_db.total_rows() == 13

    def test_unknown_table(self, orders_db):
        with pytest.raises(CatalogError):
            orders_db.table("missing")

    def test_indexes_are_cached_and_invalidated(self, orders_db):
        first = orders_db.hash_index("orders", "userId")
        assert orders_db.hash_index("orders", "userId") is first
        orders_db.insert("orders", {"RowID": 7, "orderId": "0006", "goodsId": 1111,
                                    "userId": "str1"})
        rebuilt = orders_db.hash_index("orders", "userId")
        assert rebuilt is not first
        assert len(rebuilt.probe("str1")) == 4

    def test_copy_isolates_rows(self, orders_db):
        clone = orders_db.copy()
        clone.update_cell("users", 0, "userName", "changed")
        assert orders_db.table("users").rows[0]["userName"] == "Tom"
