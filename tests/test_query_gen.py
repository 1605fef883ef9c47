"""Tests for the schema graph and the random-walk join query generator."""

import random

import pytest

from repro.dsg import GenerationConfig
from repro.dsg.query_gen import RandomWalkQueryGenerator
from repro.errors import GenerationError
from repro.plan import JoinType
from repro.plan.sqlrender import SQLRenderer


class TestSchemaGraph:
    def test_vertices_and_edges(self, shopping_dsg):
        graph = shopping_dsg.schema_graph
        assert set(graph.table_names) == set(shopping_dsg.ndb.schema.table_names)
        assert len(graph.join_edges) == len(shopping_dsg.ndb.schema.foreign_keys)
        assert graph.is_connected()

    def test_edges_of_and_degree(self, shopping_dsg):
        graph = shopping_dsg.schema_graph
        hub = shopping_dsg.ndb.hub_table
        assert graph.degree(hub) >= 2
        for edge in graph.edges_of(hub):
            assert hub in (edge.child, edge.parent)

    def test_edge_direction_helpers(self, shopping_dsg):
        edge = shopping_dsg.schema_graph.join_edges[0]
        assert edge.other(edge.child) == edge.parent
        assert edge.direction_from(edge.child) == "to_parent"
        assert edge.direction_from(edge.parent) == "to_child"
        with pytest.raises(KeyError):
            edge.other("nope")

    def test_frontier_excludes_used_tables(self, shopping_dsg):
        graph = shopping_dsg.schema_graph
        all_tables = set(graph.table_names)
        assert graph.edges_from_set(all_tables) == []

    def test_columns_of_excludes_rowid(self, shopping_dsg):
        graph = shopping_dsg.schema_graph
        for table in graph.table_names:
            assert "RowID" not in graph.columns_of(table)


class TestQueryGenerator:
    def test_generated_queries_are_valid_and_multi_table(self, shopping_dsg):
        for seed in range(10):
            generator = RandomWalkQueryGenerator(
                shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(seed)
            )
            query = generator.generate()
            query.validate()
            assert len(query.tables) >= 2
            assert query.select

    def test_walk_length_bounds_join_count(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(3),
            GenerationConfig(min_joins=1, max_joins=2),
        )
        for _ in range(20):
            assert len(generator.generate().joins) <= 2

    def test_start_table_respected(self, shopping_dsg):
        hub = shopping_dsg.ndb.hub_table
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(4)
        )
        query = generator.generate(start_table=hub)
        assert query.base.table == hub
        with pytest.raises(GenerationError):
            generator.generate(start_table="missing")

    def test_all_seven_join_types_reachable(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(5)
        )
        seen = set()
        for _ in range(300):
            try:
                query = generator.generate()
            except GenerationError:
                continue
            seen.update(query.join_types)
        assert {JoinType.INNER, JoinType.LEFT_OUTER, JoinType.SEMI,
                JoinType.ANTI, JoinType.CROSS} <= seen

    def test_outer_join_soundness_constraints(self, shopping_dsg):
        """Right/full outer joins only appear as the terminal (first) step."""
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(6)
        )
        for _ in range(200):
            try:
                query = generator.generate()
            except GenerationError:
                continue
            for index, step in enumerate(query.joins):
                if step.join_type in (JoinType.RIGHT_OUTER, JoinType.FULL_OUTER):
                    assert index == 0
                    assert index == len(query.joins) - 1

    def test_semi_anti_tables_never_referenced_in_select(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(7)
        )
        for _ in range(100):
            try:
                query = generator.generate()
            except GenerationError:
                continue
            hidden = {step.table.alias for step in query.joins
                      if step.join_type in (JoinType.SEMI, JoinType.ANTI)}
            referenced = set()
            for item in query.select:
                referenced.update(t for t, _ in item.expression.references() if t)
            if query.where is not None:
                referenced.update(t for t, _ in query.where.references() if t)
            assert not (hidden & referenced)

    def test_no_aggregates_with_cross_joins(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(8),
            GenerationConfig(aggregate_probability=0.9),
        )
        for _ in range(100):
            try:
                query = generator.generate()
            except GenerationError:
                continue
            if any(step.join_type is JoinType.CROSS for step in query.joins):
                assert not query.has_aggregates()

    def test_extension_chooser_can_terminate_walk(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(9)
        )
        calls = []

        def chooser(base, steps, candidates):
            calls.append(len(candidates))
            return candidates[0] if not steps else None

        query = generator.generate(extension_chooser=chooser, walk_length=4)
        assert len(query.joins) == 1
        assert calls and all(count > 0 for count in calls)

    def test_generate_many_returns_requested_count(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(10)
        )
        queries = generator.generate_many(15)
        assert len(queries) == 15

    def test_rendered_sql_mentions_every_table(self, shopping_dsg):
        generator = RandomWalkQueryGenerator(
            shopping_dsg.ndb, shopping_dsg.noise_report, random.Random(11)
        )
        query = generator.generate()
        sql = SQLRenderer().query(query)
        for table in query.tables:
            assert table in sql
