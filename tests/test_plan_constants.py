"""The campaign constants of hinted planning.

A planner keeps, for all the queries it prepares, each table scan, each join
edge's key spec and indexed flag, and the trigger context of each (join type,
key domain, algorithm, switch context); the hint generator keeps every hint
set but JOIN_ORDER in module-level tuples.  These tests check that the memos
change nothing a plan shows and that each stays within a bound the schema
sets, however many queries are planned.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict

import pytest

from repro import run_campaign
from repro.catalog import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.core import differential
from repro.dsg import DSG, DSGConfig, HintGenerator
from repro.engine import Engine
from repro.engine.dialects import SIM_MYSQL
from repro.optimizer import Planner, standard_hint_sets
from repro.optimizer.hints import default_hints
from repro.expr import ColumnRef
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef
from repro.plan.physical import JoinAlgorithm
from repro.sqlvalue import bigint, varchar
from repro.sqlvalue.datatypes import TypeCategory
from repro.storage import Database

from test_executor_golden import CAMPAIGNS


def _campaign_queries(spec, monkeypatch):
    """Per planner of *spec*'s campaign, in order: (query, hint sets) of
    every join query it planned."""
    planned = defaultdict(list)
    execute_all = Engine.execute_all_hints
    execute_one = Engine.execute_with_report

    def all_hints(engine, query, hint_sets):
        if isinstance(query, QuerySpec):
            planned[engine.planner].append((query, list(hint_sets)))
        return execute_all(engine, query, hint_sets)

    def one(engine, query, hints=None):
        if isinstance(query, QuerySpec):
            planned[engine.planner].append((query, [hints or default_hints()]))
        return execute_one(engine, query, hints)

    monkeypatch.setattr(Engine, "execute_all_hints", all_hints)
    monkeypatch.setattr(Engine, "execute_with_report", one)
    # The recording sees this process's plans only, so a differential
    # campaign checks here; tests/test_check_process.py runs the golden
    # diff-widened campaign forked too and compares its outcomes.
    monkeypatch.setattr(differential, "checker_can_fork", lambda backend: False)
    run_campaign(spec)
    monkeypatch.undo()
    return planned


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_warm_planner_plans_as_a_fresh_one(name, monkeypatch):
    # The warm planner has planned every earlier query under each of its
    # hint sets; the fresh one plans this query under this hint set alone.
    planned = _campaign_queries(CAMPAIGNS[name], monkeypatch)
    assert sum(len(queries) for queries in planned.values()) >= 60
    for planner, queries in planned.items():
        warm = Planner(planner.database, planner.hooks)
        for query, hint_sets in queries:
            warm_query = warm.prepare(query)
            for hints in hint_sets:
                fresh_query = Planner(planner.database, planner.hooks).prepare(query)
                assert (warm_query.plan(hints).explain()
                        == fresh_query.plan(hints).explain())
                assert (warm_query.execution_key(hints)
                        == fresh_query.execution_key(hints))
                assert ([(d.algorithm, d.trigger) for d in warm_query.decide(hints)]
                        == [(d.algorithm, d.trigger) for d in fresh_query.decide(hints)])


def _edge_schema_database() -> Database:
    """Tables l, r1 and r2, each with a key column k; r2's is a string."""
    tables = [
        TableSchema("l", [Column("id", bigint()), Column("k", bigint())],
                    implicit_key=("id",)),
        TableSchema("r1", [Column("k", bigint()), Column("v", bigint())],
                    implicit_key=("k",)),
        TableSchema("r2", [Column("k", varchar(8)), Column("v", bigint())]),
    ]
    database = Database(DatabaseSchema(tables, [
        ForeignKey("l", ("k",), "r1", ("k",)), ForeignKey("l", ("k",), "r2", ("k",))]))
    database.insert("l", {"id": 0, "k": 1})
    database.insert("r1", {"k": 1, "v": 2})
    database.insert("r2", {"k": "1", "v": 3})
    return database


def test_edges_and_scans_are_keyed_by_both_ends():
    # One left column joined to two tables, and one alias naming each of
    # three tables in turn: no query may get another query's key or scan.
    database = _edge_schema_database()
    queries = [
        QuerySpec(base=TableRef(base, "x"),
                  joins=[JoinStep(TableRef(right, "y"), JoinType.INNER,
                                  left_key=ColumnRef("x", "k"),
                                  right_key=ColumnRef("y", "k"))],
                  select=[SelectItem(ColumnRef("y", "v"))])
        for base, right in (("l", "r1"), ("l", "r2"), ("r1", "l"), ("r2", "r1"))
    ]
    warm = Planner(database)
    for query in queries:
        for hints in standard_hint_sets():
            fresh = Planner(database).prepare(query)
            assert (warm.prepare(query).plan(hints).explain()
                    == fresh.plan(hints).explain())
            assert ([(d.algorithm, d.trigger) for d in warm.prepare(query).decide(hints)]
                    == [(d.algorithm, d.trigger) for d in fresh.decide(hints)])
    assert len(warm._edges) == len(queries)


def _leaves(memo):
    """(join type and key domain, switch context, algorithm) of every entry."""
    return [(kind, context, algorithm)
            for kind, contexts in memo.items()
            for context, algorithms in contexts.items()
            for algorithm in algorithms]


@pytest.mark.parametrize("dataset", ["shopping", "tpch", "kddcup"])
def test_memos_stay_within_their_schema_bounds(dataset):
    dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=20, seed=5))
    engine = Engine(dsg.database, SIM_MYSQL)
    join_orders = 0
    for _ in range(120):
        query = dsg.generate_query()
        hint_sets = dsg.hint_generator.hint_sets_for(query)
        join_orders += sum(1 for hints in hint_sets if hints.join_order)
        engine.execute_all_hints(query, hint_sets)
    # Most queries brought a JOIN_ORDER hint set of their own.
    assert join_orders >= 40
    planner = engine.planner
    schema = dsg.ndb.schema
    tables = set(schema.table_names)
    assert planner._scans
    assert {alias for table, alias in planner._scans} <= tables
    assert all(alias == table for table, alias in planner._scans)
    assert len(planner._scans) <= len(tables)
    # Each edge is joined from either side.
    assert planner._edges
    assert len(planner._edges) <= 2 * len(dsg.schema_graph.join_edges)
    # A switch context is one of the fixed hint sets', never a JOIN_ORDER
    # set's own, so the trigger memo cannot grow with the queries.
    contexts = {(hints.switches, hints.join_cache_level)
                for hints in standard_hint_sets()}
    bound = (len(JoinType) * (len(TypeCategory) + 1) * len(JoinAlgorithm)
             * len(contexts))
    for memo in (planner._triggers, planner._behaviour_keys):
        leaves = _leaves(memo)
        assert leaves
        assert {context for _, context, _ in leaves} <= contexts
        assert len(leaves) <= bound


#: (hint-set lists, sha256 of their names and join orders) over the stream
#: of ``_hint_name_stream``, recorded before the fixed hint sets became
#: module-level constants.
HINT_NAMES = (240, "27c6f164a14941e9d638ffc4d01971a341d772169aa26605d0d8e6839cec3950")


def _hint_name_stream():
    for dataset, seed in (("shopping", 21), ("tpch", 22), ("kddcup", 23)):
        dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=30, seed=seed))
        capped = HintGenerator(random.Random(seed), max_hint_sets=5)
        for _ in range(40):
            query = dsg.generate_query()
            for generator in (dsg.hint_generator, capped):
                yield [(hints.name, hints.join_order)
                       for hints in generator.hint_sets_for(query)]


def test_hint_sets_for_returns_the_recorded_names():
    digest = hashlib.sha256()
    count = 0
    for names in _hint_name_stream():
        digest.update(repr(names).encode())
        count += 1
    assert (count, digest.hexdigest()) == HINT_NAMES


def test_fixed_hint_sets_are_shared():
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=20, seed=3))
    generator = HintGenerator(random.Random(1))
    first, second = (generator.hint_sets_for(dsg.generate_query()) for _ in range(2))
    assert first[0] is default_hints()
    # The default plan, seven forced algorithms and the minimal join cache.
    assert all(hints is other for hints, other in zip(first[:9], second[:9]))
