"""Selection pushdown leaves every bug-free result as it was.

The planner of a bug-free engine evaluates a WHERE conjunct over one table
on that table's scan, below the joins, when no join can pad the table's rows
(:class:`~repro.optimizer.planner.PreparedQuery`).  Hooks of any subclass of
:class:`~repro.plan.physical.ExecutionHooks` -- here one that overrides
nothing -- keep the whole clause over the joins' output, so the plan of the
same query under them is the plan shape without pushdown.  Over random small
databases, all seven join types, every join order the hints give and every
predicate form :class:`~repro.expr.builder.PredicateBuilder` emits, both
plans must give the same rows, with the same Python types, in the same
order.
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, DatabaseSchema, TableSchema
from repro.engine import Engine, SIM_MYSQL
from repro.expr import (
    And,
    ColumnRef,
    Comparison,
    InSubquery,
    IsNull,
    Or,
    column,
    lit,
)
from repro.expr.builder import PredicateBuilder
from repro.optimizer import join_order_hints, standard_hint_sets
from repro.plan import (
    ExecutionHooks,
    Filter,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    TableRef,
    TableScan,
)
from repro.sqlvalue import NULL, bigint, decimal, double, varchar
from repro.storage import Database


class UnchangedHooks(ExecutionHooks):
    """Bug-free hooks that are not exactly :class:`ExecutionHooks`."""


TABLES = ("t0", "t1", "t2")
COLUMNS = {
    "k": bigint(),
    "d": decimal(6, 1),
    "f": double(),
    "s": varchar(4),
}
VALUES = {
    "k": st.one_of(st.integers(-2, 2), st.just(NULL)),
    "d": st.sampled_from([Decimal("0"), Decimal("-0"), Decimal("1"),
                          Decimal("1.5"), Decimal("-2.0"), NULL]),
    "f": st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.0, float("inf"), NULL]),
    "s": st.sampled_from(["", "1", "a", "b", "1.5", NULL]),
}
SCHEMA = DatabaseSchema([
    TableSchema(name, [Column(col, dtype) for col, dtype in COLUMNS.items()])
    for name in TABLES
])

rows = st.fixed_dictionaries(VALUES)
tables = st.tuples(*(st.lists(rows, min_size=1, max_size=6) for _ in TABLES))

#: Every hint set TQS runs, plus the one that swaps the two join steps
#: (it falls back to the query's order when a2 joins on a1).
HINT_SETS = standard_hint_sets() + [join_order_hints(("a0", "a2", "a1"))]


def build_db(contents) -> Database:
    db = Database(SCHEMA)
    for name, table_rows in zip(TABLES, contents):
        db.insert_many(name, table_rows)
    return db


@st.composite
def queries(draw, db):
    """A two-step join query over ``t0 a0, t1 a1, t2 a2`` with a random WHERE."""
    names = list(COLUMNS)
    exposed = ["a0"]
    joins = []
    for index in (1, 2):
        alias = f"a{index}"
        join_type = draw(st.sampled_from(list(JoinType)))
        keys = {}
        if join_type is not JoinType.CROSS:
            # Mostly like columns, which match often; sometimes mixed domains.
            left_name = draw(st.sampled_from(names))
            right_name = draw(st.sampled_from([left_name, left_name] + names))
            keys = dict(left_key=ColumnRef(draw(st.sampled_from(exposed)), left_name),
                        right_key=ColumnRef(alias, right_name))
        residual = None
        if join_type is not JoinType.CROSS and draw(st.booleans()):
            # Over the two tables of the step: every join order joins both
            # before it.
            residual = Comparison(draw(st.sampled_from(["<>", "<", ">="])),
                                  column(alias, draw(st.sampled_from(names))),
                                  column(keys["left_key"].table,
                                         draw(st.sampled_from(names))))
        joins.append(JoinStep(TableRef(f"t{index}", alias), join_type,
                              extra_condition=residual, **keys))
        if join_type.exposes_right_columns:
            exposed.append(alias)

    builder = PredicateBuilder(random.Random(draw(st.integers(0, 2**32))))

    def predicate():
        alias = draw(st.sampled_from(exposed))
        name = draw(st.sampled_from(names))
        table = f"t{alias[1]}"
        observed = db.table(table).column_values(name)
        return builder.build(alias, SCHEMA.table(table).column(name), observed)

    conjuncts = [predicate() for _ in range(draw(st.integers(1, 4)))]
    if len(exposed) > 1 and draw(st.booleans()):
        # Conjuncts over two tables stay above the joins.
        first, second = draw(st.permutations(exposed))[:2]
        conjuncts.append(draw(st.sampled_from([
            Comparison("<=", column(first, "k"), column(second, "d")),
            Or(IsNull(column(first, "s")), IsNull(column(second, "f"))),
        ])))
    draw(st.randoms()).shuffle(conjuncts)
    return QuerySpec(
        base=TableRef("t0", "a0"),
        joins=joins,
        select=[SelectItem(column(alias, name), alias=f"{alias}_{name}")
                for alias in exposed for name in names],
        where=And(*conjuncts) if len(conjuncts) > 1 else conjuncts[0],
        distinct=draw(st.booleans()),
    )


def typed_rows(report):
    return [tuple((type(value), repr(value)) for value in row)
            for row in report.result.rows]


def walk(operator):
    yield operator
    for child in operator.children():
        yield from walk(child)


def conjuncts_of(expression):
    return list(expression.operands) if isinstance(expression, And) else [expression]


def filter_placement(plan):
    """(top filter conjuncts, {alias: conjuncts filtered on its scan})."""
    top, scans = [], {}
    for operator in walk(plan):
        if not isinstance(operator, Filter):
            continue
        if isinstance(operator.child, TableScan):
            scans[operator.child.alias] = conjuncts_of(operator.predicate)
        else:
            assert not top, "a second filter over a join"
            top = conjuncts_of(operator.predicate)
    return top, scans


def expected_scan_alias(query, conjunct):
    """The alias the pushdown rule places *conjunct* on, or None."""
    if any(step.join_type in (JoinType.RIGHT_OUTER, JoinType.FULL_OUTER)
           for step in query.joins):
        return None
    aliases = {table for table, _ in conjunct.references()}
    unpadded = {"a0"} | {step.table.alias for step in query.joins
                         if step.join_type in (JoinType.INNER, JoinType.CROSS)}
    if len(aliases) == 1 and aliases <= unpadded:
        return aliases.pop()
    return None


@settings(max_examples=300, deadline=None)
@given(st.data(), tables)
def test_pushed_plans_give_the_rows_of_unpushed_ones(data, contents):
    db = build_db(contents)
    query = data.draw(queries(db))
    pushed = Engine(db, hooks=ExecutionHooks()).execute_all_hints(query, HINT_SETS)
    kept = Engine(db, hooks=UnchangedHooks()).execute_all_hints(query, HINT_SETS)
    for hints, with_pushdown, without in zip(HINT_SETS, pushed, kept):
        assert typed_rows(with_pushdown) == typed_rows(without), hints.name

    placed = {}
    for conjunct in conjuncts_of(query.where):
        placed.setdefault(expected_scan_alias(query, conjunct), []).append(conjunct)
    for hints in HINT_SETS:
        top, scans = filter_placement(Engine(db).plan(query, hints))
        assert top == placed.get(None, [])
        assert scans == {alias: conjuncts for alias, conjuncts in placed.items()
                         if alias is not None}
        # Without pushdown the whole clause is the one filter, over the joins.
        top, scans = filter_placement(
            Engine(db, hooks=UnchangedHooks()).plan(query, hints))
        assert top == conjuncts_of(query.where) and scans == {}


def _query(join_type, where):
    return QuerySpec(
        base=TableRef("t0", "a0"),
        joins=[JoinStep(TableRef("t1", "a1"), join_type,
                        left_key=ColumnRef("a0", "k"), right_key=ColumnRef("a1", "k"))],
        select=[SelectItem(column("a0", "k"))],
        where=where,
    )


@pytest.mark.parametrize("join_type", [JoinType.RIGHT_OUTER, JoinType.FULL_OUTER])
def test_right_and_full_outer_queries_keep_every_conjunct_on_top(join_type):
    where = And(Comparison("=", column("a0", "k"), lit(1)),
                Comparison(">", column("a1", "f"), lit(0.5)))
    plan = Engine(build_db(([], [], []))).plan(_query(join_type, where))
    top, scans = filter_placement(plan)
    assert top == list(where.operands) and scans == {}


def test_subquery_conjuncts_stay_on_top():
    subquery = QuerySpec(base=TableRef("t2", "b"),
                         select=[SelectItem(column("b", "k"))])
    in_subquery = InSubquery(column("a0", "k"), subquery)
    plain = Comparison("<>", column("a0", "s"), lit("a"))
    plan = Engine(build_db(([], [], []))).plan(
        _query(JoinType.INNER, And(in_subquery, plain)))
    assert filter_placement(plan) == ([in_subquery], {"a0": [plain]})


def test_seeded_fault_hooks_keep_the_whole_clause_on_top():
    where = Comparison("=", column("a0", "k"), lit(1))
    plan = Engine(build_db(([], [], [])), dialect=SIM_MYSQL).plan(
        _query(JoinType.INNER, where))
    assert filter_placement(plan) == ([where], {})


def test_join_order_hint_waits_for_every_alias_a_residual_condition_reads():
    """``t0 a0 INNER JOIN t1 a1 ON a0.k = a1.k INNER JOIN t2 a2 ON a0.k = a2.k
    AND a2.k <> a1.k`` under ``join_order_hints(("a0", "a2", "a1"))``.

    a2's key joins on a0, but its residual condition reads a1, so the hinted
    order would compile that condition without a1's columns.  The planner
    keeps the query's own order instead.
    """
    def row(k):
        return {"k": k, "d": NULL, "f": NULL, "s": NULL}

    db = build_db(([row(1), row(2)], [row(1), row(3)], [row(1), row(2)]))
    query = QuerySpec(
        base=TableRef("t0", "a0"),
        joins=[
            JoinStep(TableRef("t1", "a1"), JoinType.INNER,
                     left_key=ColumnRef("a0", "k"), right_key=ColumnRef("a1", "k")),
            JoinStep(TableRef("t2", "a2"), JoinType.INNER,
                     left_key=ColumnRef("a0", "k"), right_key=ColumnRef("a2", "k"),
                     extra_condition=Comparison("<>", column("a2", "k"),
                                                column("a1", "k"))),
        ],
        select=[SelectItem(column(alias, "k"), alias=f"{alias}_k")
                for alias in ("a0", "a1", "a2")],
    )
    hints = join_order_hints(("a0", "a2", "a1"))
    engine = Engine(db)
    assert engine.explain(query, hints) == engine.explain(query)
    assert typed_rows(engine.execute_with_report(query, hints)) == typed_rows(
        engine.execute_with_report(query))
