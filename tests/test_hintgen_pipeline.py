"""Tests for the hint generator and the DSG facade (pipeline wiring)."""

import random

from repro.dsg import DSG, DSGConfig, HintGenerator, TransformedQuery
from repro.expr import ColumnRef, column
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef


def query_with(join_types, dsg):
    hub = dsg.ndb.hub_table
    fks = [fk for fk in dsg.ndb.schema.foreign_keys if fk.table == hub]
    joins = []
    for join_type, fk in zip(join_types, fks):
        joins.append(JoinStep(TableRef(fk.ref_table, fk.ref_table), join_type,
                              left_key=ColumnRef(hub, fk.columns[0]),
                              right_key=ColumnRef(fk.ref_table, fk.columns[0])))
    return QuerySpec(
        base=TableRef(hub, hub),
        joins=joins,
        select=[SelectItem(column(hub, dsg.ndb.data_columns(hub)[0]))],
    )


class TestHintGenerator:
    def test_default_plan_always_first(self, shopping_dsg):
        generator = HintGenerator(random.Random(1))
        hints = generator.hint_sets_for(query_with([JoinType.INNER], shopping_dsg))
        assert hints[0].name == "default"

    def test_semi_join_queries_get_materialization_hints(self, shopping_dsg):
        generator = HintGenerator(random.Random(2))
        names = {h.name for h in generator.hint_sets_for(
            query_with([JoinType.SEMI], shopping_dsg))}
        assert any("no_materialization" in name for name in names)
        assert any("no_semijoin" in name for name in names)

    def test_outer_join_queries_get_join_cache_hints(self, shopping_dsg):
        generator = HintGenerator(random.Random(3))
        names = {h.name for h in generator.hint_sets_for(
            query_with([JoinType.LEFT_OUTER], shopping_dsg))}
        assert "join_cache_hashed_off" in names
        assert "outer_join_with_cache_off" in names

    def test_inner_only_queries_skip_irrelevant_hints(self, shopping_dsg):
        generator = HintGenerator(random.Random(4))
        names = {h.name for h in generator.hint_sets_for(
            query_with([JoinType.INNER], shopping_dsg))}
        assert not any("join_cache" in name and name.endswith("_off") for name in names
                       if "level" not in name)

    def test_multi_join_queries_get_join_order_hint(self, shopping_dsg):
        generator = HintGenerator(random.Random(5))
        query = query_with([JoinType.INNER, JoinType.INNER], shopping_dsg)
        names = {h.name for h in generator.hint_sets_for(query)}
        assert "join_order" in names

    def test_max_hint_sets_is_respected(self, shopping_dsg):
        generator = HintGenerator(random.Random(6), max_hint_sets=4)
        query = query_with([JoinType.SEMI, JoinType.LEFT_OUTER], shopping_dsg)
        hints = generator.hint_sets_for(query)
        assert len(hints) == 4
        assert hints[0].name == "default"

    def test_transform_renders_hint_comment(self, shopping_dsg):
        generator = HintGenerator(random.Random(7))
        query = query_with([JoinType.INNER], shopping_dsg)
        transformed = generator.transform(query)
        assert all(isinstance(t, TransformedQuery) for t in transformed)
        assert any("hash_join()" in t.render() for t in transformed)


class TestDSGFacade:
    def test_pipeline_exposes_all_artifacts(self, shopping_dsg):
        assert shopping_dsg.database.total_rows() > 0
        assert len(shopping_dsg.wide) > 0
        assert shopping_dsg.noise_report is not None
        assert shopping_dsg.schema_graph.join_edges
        assert "dataset: shopping" in shopping_dsg.describe()

    def test_custom_wide_table_path(self):
        from repro.dsg import build_dataset

        spec = build_dataset("shopping", 60, random.Random(1))
        dsg = DSG(DSGConfig(dataset="ignored", seed=1, inject_noise=False),
                  wide=spec.wide)
        assert dsg.dataset.name == "custom"
        assert dsg.noise_report is None
        query = dsg.generate_query()
        truth = dsg.ground_truth(query)
        assert truth is not None

    def test_no_noise_configuration_keeps_wide_table_size(self):
        config = DSGConfig(dataset="shopping", dataset_rows=80, seed=2,
                           inject_noise=False)
        dsg = DSG(config)
        assert len(dsg.wide) == len(dsg.dataset.wide)
        assert dsg.noise_report is None

    def test_discovered_fd_source_builds_a_working_pipeline(self):
        config = DSGConfig(dataset="shopping", dataset_rows=90, seed=3,
                           fd_source="discovered")
        dsg = DSG(config)
        query = dsg.generate_query()
        truth = dsg.ground_truth(query)
        from repro.engine import reference_engine

        result = reference_engine(dsg.database).execute(query)
        assert truth.matches(result)

    def test_seed_determinism(self):
        first = DSG(DSGConfig(dataset="kddcup", dataset_rows=80, seed=9))
        second = DSG(DSGConfig(dataset="kddcup", dataset_rows=80, seed=9))
        assert first.generate_query() == second.generate_query()

    def test_max_hint_sets_flows_through(self):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=4,
                            max_hint_sets=3))
        query = dsg.generate_query()
        assert len(dsg.transform_query(query)) == 3
