"""Tests for columns, table schemas, keys, foreign keys and database schemas."""

import pytest

from repro.catalog import Column, DatabaseSchema, ForeignKey, KeyConstraint, TableSchema, make_table
from repro.errors import CatalogError, SchemaError
from repro.plan.sqlrender import SQLRenderer
from repro.sqlvalue import bigint, varchar


def _users_table() -> TableSchema:
    return TableSchema(
        "users",
        [Column("RowID", bigint(nullable=False)), Column("userId", varchar(16)),
         Column("userName", varchar(40))],
        primary_key=("RowID",),
        implicit_key=("userId",),
        keys=(KeyConstraint(("userId",), unique=True),),
    )


class TestTableSchema:
    def test_column_lookup(self):
        table = _users_table()
        assert table.column("userId").dtype.name.value == "varchar"
        assert table.has_column("userName")
        assert not table.has_column("missing")

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            _users_table().column("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", varchar(5)), Column("a", varchar(5))])

    def test_key_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", varchar(5))], primary_key=("b",))

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_data_columns_excludes_rowid(self):
        names = [c.name for c in _users_table().data_columns()]
        assert names == ["userId", "userName"]

    def test_rendered_ddl_mentions_keys(self):
        ddl = SQLRenderer().create_table(_users_table())
        assert 'CREATE TABLE "users"' in ddl
        assert 'PRIMARY KEY ("RowID")' in ddl
        indexes = SQLRenderer().create_indexes(_users_table())
        # The declared key covers the implicit key's columns: one index.
        assert indexes == ['CREATE INDEX "idx_users_0_userId" ON "users" ("userId")']

    def test_implicit_key_indexed_only_when_no_key_covers_it(self):
        table = TableSchema(
            "orders",
            [Column("RowID", bigint(nullable=False)), Column("orderId", varchar(8)),
             Column("userId", varchar(16))],
            primary_key=("RowID",),
            implicit_key=("orderId", "userId"),
            keys=(KeyConstraint(("userId",)),),
        )
        assert SQLRenderer().create_indexes(table) == [
            'CREATE INDEX "idx_orders_0_userId" ON "orders" ("userId")',
            'CREATE INDEX "idx_orders_implicit_key" ON "orders" ("orderId", "userId")',
        ]
        # Neither the primary key nor a key of the same columns is indexed twice.
        keyed = TableSchema("t", [Column("a", varchar(5))], primary_key=("a",),
                            implicit_key=("a",))
        assert SQLRenderer().create_indexes(keyed) == []

    def test_make_table_helper(self):
        table = make_table("t", [Column("a", varchar(5))], implicit_key=("a",))
        assert table.implicit_key == ("a",)

    def test_empty_key_constraint_rejected(self):
        with pytest.raises(SchemaError):
            KeyConstraint(())


class TestForeignKey:
    def test_joins_either_direction(self):
        fk = ForeignKey("orders", ("userId",), "users", ("userId",))
        assert fk.joins("orders", "users")
        assert fk.joins("users", "orders")
        assert not fk.joins("orders", "goods")

    def test_mismatched_column_counts(self):
        with pytest.raises(SchemaError):
            ForeignKey("a", ("x", "y"), "b", ("x",))


class TestDatabaseSchema:
    def test_lookup_and_neighbors(self, orders_schema: DatabaseSchema):
        assert set(orders_schema.table_names) == {"orders", "users", "goods"}
        assert orders_schema.joinable_neighbors("orders") == ["goods", "users"]
        assert orders_schema.joinable_neighbors("users") == ["orders"]

    def test_join_edge(self, orders_schema: DatabaseSchema):
        fk = orders_schema.join_edge("orders", "users")
        assert fk is not None and fk.columns == ("userId",)
        assert orders_schema.join_edge("users", "goods") is None

    def test_unknown_table(self, orders_schema: DatabaseSchema):
        with pytest.raises(CatalogError):
            orders_schema.table("missing")

    def test_duplicate_table_rejected(self):
        table = _users_table()
        with pytest.raises(SchemaError):
            DatabaseSchema([table, table])

    def test_fk_must_reference_existing_columns(self):
        users = _users_table()
        with pytest.raises(SchemaError):
            DatabaseSchema([users], [ForeignKey("users", ("nope",), "users", ("userId",))])

    def test_column_owner(self, orders_schema: DatabaseSchema):
        assert set(orders_schema.column_owner("userId")) == {"orders", "users"}

    def test_rendered_ddl_contains_all_tables(self, orders_schema: DatabaseSchema):
        renderer = SQLRenderer()
        for table in orders_schema.tables:
            assert f'CREATE TABLE "{table.name}"' in renderer.create_table(table)
