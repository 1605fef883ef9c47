"""Round-trip tests: render IR to SQL, execute on real SQLite, compare with the
reference executor.

These are the renderer's semantic contract tests: for every
:class:`~repro.sqlvalue.datatypes.TypeCategory` and every
:class:`~repro.plan.logical.JoinType`, the rendered query must mean on SQLite
exactly what the spec means to the reference engine — including NULL keys,
``-0.0`` vs ``0.0``, decimal/float representation changes and noise-injected
boundary values on DSG-generated databases.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.backends import SQLiteBackend, SQLRenderer, SimulatedBackend
from repro.catalog import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.core import TQS, TQSConfig
from repro.dsg import DSG, DSGConfig, TransformedQuery
from repro.engine import Engine, Relation, ResultSet, agree, reference_engine
from repro.engine.dialects import SIM_MYSQL
from repro.errors import GenerationError
from repro.optimizer import default_hints
from repro.expr.ast import (
    ColumnRef,
    Comparison,
    IsNull,
    Or,
    ScalarSubquery,
    column,
    lit,
)
from repro.plan.logical import (
    AggregateFunction,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    TableRef,
)
from repro.sqlvalue import (
    NULL,
    bigint,
    boolean,
    date,
    decimal,
    double,
    integer,
    varchar,
)
from repro.storage import Database


@pytest.fixture(scope="module")
def typed_db() -> Database:
    """Two joinable tables whose columns cover every TypeCategory."""
    facts = TableSchema(
        "facts",
        [
            Column("RowID", bigint(nullable=False)),
            Column("k", integer()),                  # INTEGER
            Column("amount", decimal(8, 2)),         # DECIMAL
            Column("ratio", double()),               # FLOAT
            Column("tag", varchar(32)),              # STRING
            Column("day", date()),                   # TEMPORAL
            Column("flag", boolean()),               # BOOLEAN
        ],
        primary_key=("RowID",),
        implicit_key=("k",),
    )
    dims = TableSchema(
        "dims",
        [
            Column("RowID", bigint(nullable=False)),
            Column("k", integer()),
            Column("label", varchar(32)),
        ],
        primary_key=("RowID",),
        implicit_key=("k",),
    )
    schema = DatabaseSchema(
        [facts, dims],
        [ForeignKey("facts", ("k",), "dims", ("k",))],
        name="typed_db",
    )
    db = Database(schema)
    db.insert_many(
        "facts",
        [
            {"RowID": 0, "k": 1, "amount": Decimal("15.10"), "ratio": 0.5,
             "tag": "alpha", "day": "2020-01-01", "flag": True},
            {"RowID": 1, "k": 2, "amount": Decimal("-3.25"), "ratio": -0.0,
             "tag": "it's", "day": "1000-01-01", "flag": False},
            {"RowID": 2, "k": NULL, "amount": NULL, "ratio": 1e15,
             "tag": NULL, "day": NULL, "flag": NULL},
            {"RowID": 3, "k": 9, "amount": Decimal("0"), "ratio": 0.0,
             "tag": "trailing ", "day": "9999-12-31", "flag": True},
            {"RowID": 4, "k": 2, "amount": Decimal("7.77"), "ratio": 2.25,
             "tag": "alpha", "day": "2020-01-01", "flag": False},
        ],
    )
    db.insert_many(
        "dims",
        [
            {"RowID": 0, "k": 1, "label": "one"},
            {"RowID": 1, "k": 2, "label": "two"},
            {"RowID": 2, "k": NULL, "label": "nullkey"},
            {"RowID": 3, "k": 4, "label": "unmatched"},
        ],
    )
    return db


def _assert_backend_matches_reference(db: Database, query: QuerySpec,
                                      render=None) -> None:
    """Run *query* on SQLite, as the backend renders it or as *render* spells
    it, and compare with the reference executor."""
    query.validate()
    reference = reference_engine(db)
    with SQLiteBackend() as backend:
        backend.load_schema(db.schema)
        backend.load_data(db)
        if render is None:
            execution = backend.execute(query)
            sql, observed = execution.sql, execution.result
        else:
            sql = render(query)
            observed = backend.execute_sql(sql)
        assert agree(reference.execute(query), observed, Relation.SET_EQUAL,
                     tolerant=True), (
            f"SQLite diverges from the reference executor:\n{sql}\n"
            f"reference:\n{reference.execute(query).render()}\n"
            f"sqlite:\n{observed.render()}"
        )


#: The SQL texts a query is spelled in: the SQLite backend's own rendering
#: (None), the reference dialect, and a filed bug report's (the reference
#: dialect plus the hint comment of its (query, hint) pair).
RENDERERS = {
    "sqlite": None,
    "reference": SQLRenderer().query,
    "bug-report": lambda query: TransformedQuery(query, default_hints()).render(),
}


@pytest.mark.parametrize("renderer", sorted(RENDERERS))
@pytest.mark.parametrize("join_type", list(JoinType))
def test_every_join_type_round_trips(typed_db: Database, join_type: JoinType,
                                     renderer: str):
    """Each join type over NULL keys on both sides means on SQLite, in every
    spelling, what it means to the reference executor."""
    kwargs = {}
    if join_type is not JoinType.CROSS:
        kwargs = dict(left_key=ColumnRef("facts", "k"),
                      right_key=ColumnRef("dims", "k"))
    select = [
        SelectItem(ColumnRef("facts", "k")),
        SelectItem(ColumnRef("facts", "tag")),
    ]
    if join_type.exposes_right_columns:
        select.append(SelectItem(ColumnRef("dims", "label")))
    query = QuerySpec(
        base=TableRef("facts", "facts"),
        joins=[JoinStep(TableRef("dims", "dims"), join_type, **kwargs)],
        select=select,
    )
    _assert_backend_matches_reference(typed_db, query, RENDERERS[renderer])


@pytest.mark.parametrize(
    "column_name",
    ["k", "amount", "ratio", "tag", "day", "flag"],
    ids=["integer", "decimal", "float", "string", "temporal", "boolean"],
)
def test_every_type_category_round_trips(typed_db: Database, column_name: str):
    """Project and filter each type category through SQLite and compare."""
    values = typed_db.table("facts").distinct_values(column_name)
    predicate = Or(
        Comparison("=", column("facts", column_name), lit(values[0])),
        IsNull(column("facts", column_name)),
    )
    query = QuerySpec(
        base=TableRef("facts", "facts"),
        joins=[
            JoinStep(TableRef("dims", "dims"), JoinType.LEFT_OUTER,
                     left_key=ColumnRef("facts", "k"),
                     right_key=ColumnRef("dims", "k"))
        ],
        select=[
            SelectItem(ColumnRef("facts", column_name)),
            SelectItem(ColumnRef("dims", "label")),
        ],
        where=predicate,
    )
    _assert_backend_matches_reference(typed_db, query)


def test_aggregate_round_trips(typed_db: Database):
    query = QuerySpec(
        base=TableRef("facts", "facts"),
        joins=[
            JoinStep(TableRef("dims", "dims"), JoinType.INNER,
                     left_key=ColumnRef("facts", "k"),
                     right_key=ColumnRef("dims", "k"))
        ],
        select=[
            SelectItem(ColumnRef("dims", "label")),
            SelectItem(ColumnRef("facts", "amount"),
                       aggregate=AggregateFunction.COUNT),
            SelectItem(ColumnRef("facts", "ratio"),
                       aggregate=AggregateFunction.MAX),
        ],
        group_by=[ColumnRef("dims", "label")],
    )
    _assert_backend_matches_reference(typed_db, query)


def test_negative_zero_join_key_round_trips(typed_db: Database):
    """-0.0 and 0.0 are one join key for the reference and for SQLite alike."""
    query = QuerySpec(
        base=TableRef("facts", "facts"),
        joins=[
            JoinStep(TableRef("dims", "dims"), JoinType.SEMI,
                     left_key=ColumnRef("facts", "k"),
                     right_key=ColumnRef("dims", "k"))
        ],
        select=[SelectItem(ColumnRef("facts", "ratio"))],
        where=Comparison("=", column("facts", "ratio"), lit(0.0)),
    )
    _assert_backend_matches_reference(typed_db, query)


def test_export_script_recreates_database(typed_db: Database):
    """The literal DDL+DML export must rebuild an identical SQLite database."""
    import sqlite3

    from repro.backends import SQLITE_DIALECT, SQLRenderer

    renderer = SQLRenderer(SQLITE_DIALECT)
    connection = sqlite3.connect(":memory:")
    for statement in renderer.export_database(typed_db):
        connection.execute(statement)
    count = connection.execute('SELECT COUNT(*) FROM "facts"').fetchone()[0]
    assert count == typed_db.row_count("facts")

    with SQLiteBackend() as backend:
        backend.load_schema(typed_db.schema)
        backend.load_data(typed_db)
        loaded = backend.execute_sql('SELECT * FROM "facts"')
    cursor = connection.execute('SELECT * FROM "facts"')
    from repro.sqlvalue.values import null_if_none

    exported = ResultSet(loaded.columns, (
        tuple(null_if_none(v) for v in row) for row in cursor.fetchall()))
    assert agree(exported, loaded, Relation.SET_EQUAL)


@pytest.mark.parametrize("dataset,seed", [("shopping", 11), ("tpch", 13),
                                          ("kddcup", 17)])
def test_dsg_generated_queries_round_trip(dataset: str, seed: int):
    """Property test: generated queries agree on SQLite across datasets."""
    dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=100, seed=seed))
    reference = reference_engine(dsg.database)
    with SQLiteBackend() as backend:
        backend.load_schema(dsg.database.schema)
        backend.load_data(dsg.database)
        checked = 0
        for _ in range(30):
            try:
                query = dsg.generate_query()
            except Exception:
                continue
            execution = backend.execute(query)
            assert agree(reference.execute(query), execution.result,
                         Relation.SET_EQUAL, tolerant=True), (
                f"divergence on {dataset}:\n{execution.sql}"
            )
            checked += 1
    assert checked >= 20


def test_simulated_backend_parity(typed_db: Database):
    """The clean SimulatedBackend is execution-identical to the reference."""
    backend = SimulatedBackend()
    backend.deploy(typed_db)
    query = QuerySpec(
        base=TableRef("facts", "facts"),
        joins=[
            JoinStep(TableRef("dims", "dims"), JoinType.INNER,
                     left_key=ColumnRef("facts", "k"),
                     right_key=ColumnRef("dims", "k"))
        ],
        select=[SelectItem(ColumnRef("facts", "tag"))],
    )
    reference = reference_engine(typed_db)
    assert agree(reference.execute(query), backend.execute(query).result,
                 Relation.SET_EQUAL)
    assert backend.explain(query)


def test_filed_bug_reports_parse_on_sqlite():
    """Every SQL text a seeded tqs campaign files (query and minimized query)
    parses on SQLite over the deployed dataset, and so does the bug report
    of a query holding a scalar subquery."""
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=30, seed=3))
    tqs = TQS(dsg, Engine(dsg.database, SIM_MYSQL),
              TQSConfig(reduce_failures=True, seed=3))
    for _ in range(40):
        try:
            tqs.run_iteration()
        except GenerationError:
            continue
    incidents = tqs.bug_log.incidents
    assert incidents, "the seeded campaign should file bug reports"
    reports = [incident.query_sql for incident in incidents]
    reports += [incident.minimized_sql for incident in incidents
                if incident.minimized_sql]

    table = dsg.database.table_names[0]
    value = dsg.ndb.data_columns(table)[0]
    subquery = QuerySpec(
        base=TableRef(table, "sq"),
        select=[SelectItem(column("sq", value), aggregate=AggregateFunction.MAX)],
    )
    scalar = QuerySpec(
        base=TableRef(table, table),
        select=[SelectItem(column(table, value))],
        where=Comparison("<=", column(table, value), ScalarSubquery(subquery)),
    )
    reports.append(TransformedQuery(scalar, default_hints()).render())

    with SQLiteBackend() as backend:
        backend.deploy(dsg.database)
        for sql in reports:
            backend.execute_sql(f"EXPLAIN {sql}")  # must not raise
