"""The row executor orders values exactly as SQLite does.

MIN, MAX and ORDER BY (ASC and DESC, NULLs included) of the reference
executor must equal SQLite's over every key domain SQLite stores exactly:
64-bit integers, doubles, integers mixed with doubles, and text.  Both sides
run the same single-table query over the same rows, so any difference is a
difference in value order.  Ties that pair ``2**53`` with ``2**53 + 1`` are
the cases an order through ``float`` gets wrong.  SQLite cannot store
integers past 64 bits, so ``10**400`` is checked against the reference alone.
"""

from decimal import Decimal

from hypothesis import example, given, settings, strategies as st

from repro.backends import SQLiteBackend
from repro.catalog import Column, DatabaseSchema, TableSchema
from repro.engine import reference_engine
from repro.expr.ast import ColumnRef
from repro.plan.logical import (
    AggregateFunction,
    OrderItem,
    QuerySpec,
    SelectItem,
    TableRef,
)
from repro.sqlvalue import NULL, bigint, decimal, double, text
from repro.sqlvalue.values import normalize_row
from repro.storage import Database

KEY = ColumnRef("t", "k")

INTEGERS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([2**53, 2**53 + 1, -(2**53), -(2**53) - 1,
                     2**63 - 1, -(2**63)]),
)
FLOATS = st.floats(allow_nan=False)
# SQLite's BINARY collation compares UTF-8 bytes, which order as code points
# do; surrogates have no UTF-8 form, and NUL ends a C string.
STRINGS = st.text(st.characters(exclude_categories=("Cs",),
                                exclude_characters="\x00"), max_size=6)

DOMAINS = {
    "int": (bigint, INTEGERS),
    "float": (double, FLOATS),
    # An INTEGER-affinity column keeps integers exact and stores each double
    # as REAL unless it converts to an integer without loss.
    "mixed": (bigint, st.one_of(INTEGERS, FLOATS)),
    "str": (text, STRINGS),
}

CASES = st.sampled_from(sorted(DOMAINS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(st.one_of(DOMAINS[name][1], st.just(NULL)), max_size=10),
    )
)


def build_db(column_type, keys) -> Database:
    schema = DatabaseSchema(
        [TableSchema("t", [Column("id", bigint()), Column("k", column_type)],
                     implicit_key=("id",))],
        [],
    )
    db = Database(schema)
    for index, key in enumerate(keys):
        db.insert("t", {"id": index, "k": key})
    return db


def aggregate(function) -> QuerySpec:
    return QuerySpec(base=TableRef("t", "t"),
                     select=[SelectItem(KEY, aggregate=function)],
                     distinct=False)


def ordered(descending) -> QuerySpec:
    return QuerySpec(base=TableRef("t", "t"), select=[SelectItem(KEY)],
                     order_by=[OrderItem(KEY, descending=descending)],
                     distinct=False)


QUERIES = [aggregate(AggregateFunction.MIN), aggregate(AggregateFunction.MAX),
           ordered(False), ordered(True)]


def normalized(result):
    return [normalize_row(row) for row in result.rows]


@settings(max_examples=200, deadline=None)
@given(CASES)
@example(("int", [2**53, 2**53 + 1, NULL]))
@example(("int", [2**53 + 1, 2**53]))
@example(("int", [-(2**53), NULL, -(2**53) - 1]))
@example(("mixed", [float(2**53), 2**53 + 1, NULL]))
@example(("mixed", [2**53 + 1, float(2**53)]))
def test_min_max_and_order_by_match_sqlite(case):
    domain, keys = case
    db = build_db(DOMAINS[domain][0](), keys)
    engine = reference_engine(db)
    backend = SQLiteBackend()
    backend.deploy(db)
    try:
        for query in QUERIES:
            # Order-sensitive: ORDER BY rows are compared as lists.
            assert normalized(engine.execute(query)) == normalized(
                backend.execute(query).result
            ), backend.renderer.query(query)
    finally:
        backend.close()


def test_reference_orders_numbers_past_the_float_range():
    keys = [10**400, NULL, 1.5, -(10**400), 2**53 + 1, 2**53]
    engine = reference_engine(build_db(bigint(), keys))
    ascending = [(NULL,), (-(10**400),), (1.5,), (2**53,), (2**53 + 1,),
                 (10**400,)]
    assert normalized(engine.execute(ordered(False))) == ascending
    assert normalized(engine.execute(ordered(True))) == (
        ascending[:0:-1] + ascending[:1]
    )
    assert normalized(engine.execute(aggregate(AggregateFunction.MIN))) == [
        (-(10**400),)
    ]
    assert normalized(engine.execute(aggregate(AggregateFunction.MAX))) == [
        (10**400,)
    ]


def test_reference_orders_decimals_with_integers_exactly():
    keys = [Decimal("15.25"), 5, NULL, Decimal("10.50"), 15, Decimal("4.99")]
    engine = reference_engine(build_db(decimal(8, 2), keys))
    ascending = [(NULL,), (Decimal("4.99"),), (5,), (Decimal("10.50"),),
                 (15,), (Decimal("15.25"),)]
    assert list(engine.execute(ordered(False)).rows) == ascending
    assert list(engine.execute(ordered(True)).rows) == (
        ascending[:0:-1] + ascending[:1]
    )
    assert list(engine.execute(aggregate(AggregateFunction.MIN)).rows) == [
        (Decimal("4.99"),)
    ]
    assert list(engine.execute(aggregate(AggregateFunction.MAX)).rows) == [
        (Decimal("15.25"),)
    ]


def test_min_and_max_of_an_empty_table_are_null():
    engine = reference_engine(build_db(bigint(), []))
    for function in (AggregateFunction.MIN, AggregateFunction.MAX):
        assert normalized(engine.execute(aggregate(function))) == [(NULL,)]
    assert normalized(engine.execute(ordered(False))) == []
