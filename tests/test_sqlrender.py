"""Unit tests for the dialect-parameterized SQL renderer."""

from __future__ import annotations

import sqlite3
from decimal import Decimal

import pytest

from repro.backends import (
    ANSI_DIALECT,
    MYSQL_DIALECT,
    SQLITE_DIALECT,
    SQLRenderer,
)
from repro.errors import RenderError
from repro.expr.ast import (
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Not,
    Or,
    column,
    eq,
    lit,
)
from repro.plan.logical import (
    AggregateFunction,
    JoinStep,
    JoinType,
    OrderItem,
    QuerySpec,
    SelectItem,
    TableRef,
)
from repro.sqlvalue.values import NULL


@pytest.fixture
def renderer() -> SQLRenderer:
    return SQLRenderer(SQLITE_DIALECT)


# ----------------------------------------------------------------- literals


def test_literals(renderer: SQLRenderer):
    assert renderer.literal(NULL) == "NULL"
    assert renderer.literal(None) == "NULL"
    assert renderer.literal(True) == "1"
    assert renderer.literal(False) == "0"
    assert renderer.literal(42) == "42"
    assert renderer.literal(-1.5) == "-1.5"
    assert renderer.literal(Decimal("15.10")) == "15.10"
    assert renderer.literal("it's") == "'it''s'"


def test_non_finite_floats_are_rejected(renderer: SQLRenderer):
    with pytest.raises(RenderError):
        renderer.literal(float("inf"))
    with pytest.raises(RenderError):
        renderer.literal(float("nan"))


def test_identifier_quoting(renderer: SQLRenderer):
    assert renderer.ident("orders") == '"orders"'
    assert renderer.qualified("t1", "userId") == '"t1"."userId"'
    mysql = SQLRenderer(MYSQL_DIALECT)
    assert mysql.ident("orders") == "`orders`"
    with pytest.raises(RenderError):
        renderer.ident('bad"name')


# -------------------------------------------------------------- expressions


def test_expression_rendering(renderer: SQLRenderer):
    expr = Or(
        Comparison("<=", column("t", "a"), lit(3)),
        Not(IsNull(column("t", "b"))),
        Between(column("t", "c"), lit(1), lit(9), negated=True),
        InList(column("t", "d"), (lit("x"), lit("y")), negated=True),
    )
    text = renderer.expression(expr)
    assert '("t"."a" <= 3)' in text
    assert '(NOT ("t"."b" IS NULL))' in text
    assert 'NOT BETWEEN 1 AND 9' in text
    assert "NOT IN ('x', 'y')" in text


def test_null_safe_equal_is_dialect_specific():
    expr = Comparison("<=>", column("t", "a"), lit(1))
    assert "IS 1" in SQLRenderer(SQLITE_DIALECT).expression(expr)
    assert "<=> 1" in SQLRenderer(MYSQL_DIALECT).expression(expr)
    assert "IS NOT DISTINCT FROM" in SQLRenderer(ANSI_DIALECT).expression(expr)


def test_division_casts_to_real_on_sqlite(renderer: SQLRenderer):
    expr = Arithmetic("/", column("t", "a"), lit(2))
    assert renderer.expression(expr) == '(CAST("t"."a" AS REAL) / 2)'
    # SQLite would otherwise truncate: the reference divides in decimals.
    connection = sqlite3.connect(":memory:")
    assert connection.execute("SELECT CAST(7 AS REAL) / 2").fetchone()[0] == 3.5
    assert connection.execute("SELECT 7 / 2").fetchone()[0] == 3


def test_function_rendering(renderer: SQLRenderer):
    expr = FunctionCall("coalesce", (column("t", "a"), lit(0)))
    assert renderer.expression(expr) == 'COALESCE("t"."a", 0)'


# ------------------------------------------------------------------ queries


def _two_table_query(join_type: JoinType) -> QuerySpec:
    step_kwargs = {}
    if join_type is not JoinType.CROSS:
        step_kwargs = dict(
            left_key=ColumnRef("a", "k"), right_key=ColumnRef("b", "k")
        )
    return QuerySpec(
        base=TableRef("ta", "a"),
        joins=[JoinStep(TableRef("tb", "b"), join_type, **step_kwargs)],
        select=[SelectItem(ColumnRef("a", "k"))],
    )


def test_semi_join_renders_as_exists(renderer: SQLRenderer):
    sql = renderer.query(_two_table_query(JoinType.SEMI))
    assert "EXISTS (SELECT 1 FROM" in sql
    assert "IN (SELECT" not in sql
    assert "JOIN" not in sql


def test_anti_join_renders_as_not_exists(renderer: SQLRenderer):
    sql = renderer.query(_two_table_query(JoinType.ANTI))
    assert "NOT EXISTS (SELECT 1 FROM" in sql


def test_unsupported_joins_raise_for_dialect():
    mysql = SQLRenderer(MYSQL_DIALECT)
    with pytest.raises(RenderError):
        mysql.query(_two_table_query(JoinType.FULL_OUTER))
    # SQLite 3.39+ parses FULL OUTER JOIN, so the sqlite spec allows it.
    assert "FULL OUTER JOIN" in SQLRenderer(SQLITE_DIALECT).query(
        _two_table_query(JoinType.FULL_OUTER)
    )


def test_aggregates_render_with_distinct(renderer: SQLRenderer):
    query = QuerySpec(
        base=TableRef("ta", "a"),
        joins=[
            JoinStep(TableRef("tb", "b"), JoinType.INNER,
                     left_key=ColumnRef("a", "k"), right_key=ColumnRef("b", "k"))
        ],
        select=[
            SelectItem(ColumnRef("a", "k")),
            SelectItem(ColumnRef("b", "v"), aggregate=AggregateFunction.COUNT),
        ],
        group_by=[ColumnRef("a", "k")],
    )
    sql = renderer.query(query)
    # The reference Project evaluates every aggregate over deduplicated inputs.
    assert 'COUNT(DISTINCT "b"."v")' in sql
    assert 'GROUP BY "a"."k"' in sql
    assert "SELECT DISTINCT" not in sql


def test_duplicate_output_names_are_disambiguated(renderer: SQLRenderer):
    query = QuerySpec(
        base=TableRef("ta", "a"),
        joins=[
            JoinStep(TableRef("tb", "b"), JoinType.INNER,
                     left_key=ColumnRef("a", "k"), right_key=ColumnRef("b", "k"))
        ],
        select=[SelectItem(ColumnRef("a", "k")), SelectItem(ColumnRef("b", "k"))],
    )
    assert query.output_columns() == ["k", "k_1"]
    sql = renderer.query(query)
    assert 'AS "k"' in sql and 'AS "k_1"' in sql


def test_hint_comments_only_where_meaningful():
    query = _two_table_query(JoinType.INNER)
    assert "/*+ HASH_JOIN */" in SQLRenderer(MYSQL_DIALECT).query(
        query, hint_comment="HASH_JOIN"
    )
    assert "/*+" not in SQLRenderer(SQLITE_DIALECT).query(
        query, hint_comment="HASH_JOIN"
    )


def test_rendered_query_parses_on_sqlite(renderer: SQLRenderer):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE ta (k INTEGER)")
    connection.execute("CREATE TABLE tb (k INTEGER)")
    for join_type in JoinType:
        sql = renderer.query(_two_table_query(join_type))
        connection.execute(sql)  # must not raise


# ------------------------------------------------------- reference dialect


def _orders_query(join_type: JoinType = JoinType.INNER) -> QuerySpec:
    return QuerySpec(
        base=TableRef("orders", "orders"),
        joins=[JoinStep(TableRef("users", "users"), join_type,
                        left_key=ColumnRef("orders", "userId"),
                        right_key=ColumnRef("users", "userId"))],
        select=[SelectItem(column("orders", "orderId"))],
    )


def _grouped_orders_query() -> QuerySpec:
    query = _orders_query()
    query.where = eq(column("orders", "orderId"), lit("0001"))
    query.group_by = [ColumnRef("orders", "orderId")]
    query.select = [
        SelectItem(column("orders", "orderId")),
        SelectItem(column("orders", "goodsId"), aggregate=AggregateFunction.COUNT),
    ]
    query.order_by = [OrderItem(column("orders", "orderId"), descending=True)]
    query.limit = 10
    return query


@pytest.mark.parametrize("expr,text", [
    pytest.param(column("t1", "a"), '"t1"."a"', id="qualified-column"),
    pytest.param(ColumnRef(None, "a"), '"a"', id="bare-column"),
    pytest.param(eq(column("t", "a"), lit(5)), '("t"."a" = 5)', id="comparison"),
    pytest.param(
        Or(IsNull(column("t", "a")), InList(column("t", "b"), (lit(1), lit(2)))),
        '(("t"."a" IS NULL) OR ("t"."b" IN (1, 2)))',
        id="or-is-null-in-list",
    ),
])
def test_reference_dialect_expression_text(expr, text):
    assert SQLRenderer().expression(expr) == text


_JOIN_ON = 'ON "orders"."userId" = "users"."userId"'
_SELECT = 'SELECT DISTINCT "orders"."orderId" AS "orderId"\n'


@pytest.mark.parametrize("query,hint,text", [
    pytest.param(_orders_query(), "",
                 _SELECT + f'FROM "orders" INNER JOIN "users" {_JOIN_ON}',
                 id="inner"),
    pytest.param(_orders_query(JoinType.LEFT_OUTER), "",
                 _SELECT + f'FROM "orders" LEFT OUTER JOIN "users" {_JOIN_ON}',
                 id="left-outer"),
    pytest.param(_orders_query(JoinType.CROSS), "",
                 _SELECT + 'FROM "orders" CROSS JOIN "users"', id="cross"),
    pytest.param(_orders_query(JoinType.SEMI), "",
                 _SELECT + 'FROM "orders"\nWHERE EXISTS (SELECT 1 FROM "users" '
                 'WHERE "users"."userId" = "orders"."userId")',
                 id="semi-as-exists"),
    pytest.param(_orders_query(JoinType.ANTI), "",
                 _SELECT + 'FROM "orders"\nWHERE NOT EXISTS (SELECT 1 FROM "users" '
                 'WHERE "users"."userId" = "orders"."userId")',
                 id="anti-as-not-exists"),
    pytest.param(_orders_query(), "hash_join()",
                 'SELECT /*+ hash_join() */ DISTINCT "orders"."orderId" AS "orderId"\n'
                 f'FROM "orders" INNER JOIN "users" {_JOIN_ON}',
                 id="hint-comment"),
    pytest.param(_grouped_orders_query(), "",
                 'SELECT "orders"."orderId" AS "orderId", '
                 'COUNT(DISTINCT "orders"."goodsId") AS "count_1"\n'
                 f'FROM "orders" INNER JOIN "users" {_JOIN_ON}\n'
                 'WHERE ("orders"."orderId" = \'0001\')\n'
                 'GROUP BY "orders"."orderId"\n'
                 'ORDER BY "orders"."orderId" DESC NULLS LAST\n'
                 'LIMIT 10',
                 id="where-group-order-limit"),
])
def test_reference_dialect_query_text(query, hint, text):
    assert SQLRenderer().query(query, hint) == text


def test_reference_dialect_select_item_text():
    item = SelectItem(column("t", "a"), alias="x", aggregate=AggregateFunction.MAX)
    assert SQLRenderer().select_item(item, "x") == 'MAX(DISTINCT "t"."a") AS "x"'

