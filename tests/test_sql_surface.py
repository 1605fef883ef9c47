"""The widened SQL surface: set operations, scalar subqueries and CTEs.

Two soundness contracts are pinned here:

* **multiset comparison** — UNION ALL results are bags, and the oracle must
  compare them as bags: ``[1, 1]`` vs ``[1]`` is a mismatch, not a match;
* **NULL ordering** — the renderer emits explicit NULLS FIRST / NULLS LAST
  matching the reference executor's sort order, so ORDER BY over a nullable
  column agrees between engines whose *default* placements differ.

The end-to-end acceptance lives in ``TestWidenedCampaign``: a differential
campaign over SQLite with all three grammar knobs enabled completes 500+
comparisons with zero false positives.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro import DSG, DSGConfig, reference_engine
from repro.backends import SQLiteBackend
from repro.backends.sqlrender import (
    MYSQL_DIALECT,
    SQLITE_DIALECT,
    SQLRenderer,
)
from repro.core.campaign import CampaignConfig, CampaignSpec, run_campaign
from repro.core.differential import (
    DifferentialOracle,
    preserves_duplicates,
    result_sets_match,
)
from repro.distributed.wire import (
    decode_campaign_config,
    encode_campaign_config,
)
from repro.dsg.query_gen import GenerationConfig
from repro.engine.resultset import ResultSet
from repro.errors import GenerationError, PlanError, ProtocolError
from repro.expr.ast import ColumnRef, ScalarSubquery
from repro.plan.logical import (
    CompoundQuerySpec,
    OrderItem,
    QuerySpec,
    SelectItem,
    SetOperator,
    TableRef,
    combine_set_rows,
)
from repro.sqlvalue.values import is_null

WIDE_GENERATION = GenerationConfig(
    setop_probability=0.45,
    scalar_subquery_probability=0.35,
    cte_probability=0.30,
)

DATASETS = ("shopping", "kddcup")
SEEDS = (1, 2)
POOL_SIZE = 25

_DSG_CACHE = {}
_STATEMENT_CACHE = {}


def dsg_for(dataset, seed):
    key = (dataset, seed)
    if key not in _DSG_CACHE:
        _DSG_CACHE[key] = DSG(
            DSGConfig(dataset=dataset, dataset_rows=90, seed=seed,
                      generation=dataclasses_replace(WIDE_GENERATION))
        )
    return _DSG_CACHE[key]


def dataclasses_replace(config):
    # Each DSG gets its own GenerationConfig instance (the dataclass holds a
    # mutable weights dict).
    import dataclasses

    return dataclasses.replace(
        config, join_type_weights=dict(config.join_type_weights)
    )


def statement_pool(dataset, seed):
    key = (dataset, seed)
    if key not in _STATEMENT_CACHE:
        dsg = dsg_for(dataset, seed)
        pool = []
        while len(pool) < POOL_SIZE:
            try:
                pool.append(dsg.generate_statement())
            except GenerationError:
                continue
        _STATEMENT_CACHE[key] = pool
    return _STATEMENT_CACHE[key]


def two_arm_compound(operator):
    """A tiny single-table compound over the shopping dataset."""
    dsg = dsg_for("shopping", 1)
    table = dsg.database.table_names[0]
    arm = QuerySpec(
        base=TableRef(table, table),
        select=[SelectItem(ColumnRef(table, dsg.ndb.data_columns(table)[0]))],
        distinct=False,
    )
    return CompoundQuerySpec(arms=[arm, arm], operators=[operator])


# --------------------------------------------------------------- IR contracts


class TestCompoundSpec:
    def test_mixed_operators_rejected(self):
        dsg = dsg_for("shopping", 1)
        table = dsg.database.table_names[0]
        arm = QuerySpec(
            base=TableRef(table, table),
            select=[SelectItem(ColumnRef(table, dsg.ndb.data_columns(table)[0]))],
        )
        spec = CompoundQuerySpec(
            arms=[arm, arm, arm],
            operators=[SetOperator.UNION, SetOperator.INTERSECT],
        )
        with pytest.raises(PlanError, match="one operator"):
            spec.validate()

    def test_single_arm_requires_cte_name(self):
        dsg = dsg_for("shopping", 1)
        table = dsg.database.table_names[0]
        arm = QuerySpec(
            base=TableRef(table, table),
            select=[SelectItem(ColumnRef(table, dsg.ndb.data_columns(table)[0]))],
        )
        with pytest.raises(PlanError, match="cte_name"):
            CompoundQuerySpec(arms=[arm]).validate()
        CompoundQuerySpec(arms=[arm], cte_name="cte0").validate()

    def test_combine_set_rows_semantics(self):
        left = [(1,), (1,), (2,)]
        right = [(2,), (3,)]
        assert combine_set_rows([left, right], [SetOperator.UNION_ALL]) == [
            (1,), (1,), (2,), (2,), (3,)
        ]
        assert combine_set_rows([left, right], [SetOperator.UNION]) == [
            (1,), (2,), (3,)
        ]
        assert combine_set_rows([left, right], [SetOperator.INTERSECT]) == [(2,)]
        assert combine_set_rows([left, right], [SetOperator.EXCEPT]) == [(1,)]

    def test_cte_render_wraps_body(self):
        dsg = dsg_for("shopping", 1)
        table = dsg.database.table_names[0]
        column = dsg.ndb.data_columns(table)[0]
        arm = QuerySpec(
            base=TableRef(table, table),
            select=[SelectItem(ColumnRef(table, column))],
        )
        spec = CompoundQuerySpec(arms=[arm], cte_name="cte0")
        sql = spec.render()
        assert sql.startswith("WITH cte0 AS (")
        assert f"SELECT {column} FROM cte0" in sql


# ----------------------------------------------------- satellite 1: bag mode


class TestBagComparison:
    def test_duplicate_rows_mismatch_under_bag(self):
        doubled = ResultSet(["v"], [(1,), (1,)])
        single = ResultSet(["v"], [(1,)])
        # Set comparison silently equates them; bag comparison must not.
        assert doubled.same_rows(single)
        assert not doubled.same_bag(single)
        assert result_sets_match(doubled, single, bag=False)
        assert not result_sets_match(doubled, single, bag=True)
        assert result_sets_match(doubled, ResultSet(["v"], [(1,), (1,)]),
                                 bag=True)

    def test_oracle_selects_bag_for_union_all(self):
        assert preserves_duplicates(two_arm_compound(SetOperator.UNION_ALL))
        assert not preserves_duplicates(two_arm_compound(SetOperator.UNION))
        assert not preserves_duplicates(two_arm_compound(SetOperator.EXCEPT))

    def test_oracle_selects_set_for_distinct_projection(self):
        dsg = dsg_for("shopping", 1)
        query = dsg.generate_query()
        assert query.distinct
        assert not preserves_duplicates(query)

    def test_bag_mode_float_tolerance(self):
        left = ResultSet(["v"], [(1.0,), (1.0,)])
        right = ResultSet(["v"], [(1.0 + 1e-12,), (1.0 + 1e-12,)])
        assert result_sets_match(left, right, bag=True)
        assert not result_sets_match(left, ResultSet(["v"], [(1.0,)]),
                                     bag=True)


# ------------------------------------------------- satellite 2: NULL ordering


class TestNullOrdering:
    def _nullable_query(self, descending):
        # T1.goodsId carries injected NULLs in the noisy shopping dataset.
        return QuerySpec(
            base=TableRef("T1", "T1"),
            select=[SelectItem(ColumnRef("T1", "goodsId"))],
            order_by=[OrderItem(ColumnRef("T1", "goodsId"),
                                descending=descending)],
            distinct=False,
        )

    def test_renderer_emits_explicit_placement(self):
        renderer = SQLRenderer(SQLITE_DIALECT)
        asc = renderer.query(self._nullable_query(descending=False))
        desc = renderer.query(self._nullable_query(descending=True))
        if SQLITE_DIALECT.supports_nulls_ordering:
            assert "NULLS FIRST" in asc
            assert "NULLS LAST" in desc

    def test_mysql_dialect_omits_placement_syntax(self):
        # MySQL has no NULLS FIRST/LAST syntax; its default placement (NULLs
        # first ascending, last descending) already matches the reference.
        assert not MYSQL_DIALECT.supports_nulls_ordering
        sql = SQLRenderer(MYSQL_DIALECT).query(
            self._nullable_query(descending=False)
        )
        assert "NULLS" not in sql

    @pytest.mark.parametrize("descending", [False, True])
    def test_sqlite_agrees_with_reference_order(self, descending):
        dsg = dsg_for("shopping", 1)
        backend = SQLiteBackend()
        backend.deploy(dsg.database)
        try:
            query = self._nullable_query(descending)
            reference = reference_engine(dsg.database).execute(query)
            execution = backend.execute(query)
            # Order-sensitive: the whole point is the NULL placement.
            assert list(reference.rows) == list(execution.result.rows)
            nulls = [is_null(row[0]) for row in reference.rows]
            assert any(nulls), "dataset must exercise NULL ordering"
            if descending:
                assert nulls == sorted(nulls)  # NULLs last
            else:
                assert nulls == sorted(nulls, reverse=True)  # NULLs first
        finally:
            backend.close()


# --------------------------------------------- satellite 3: generate_many fix


class TestGenerateMany:
    def test_explicit_parameters(self):
        dsg = dsg_for("shopping", 2)
        queries = dsg.query_generator.generate_many(3, walk_length=2)
        assert len(queries) == 3
        with pytest.raises(TypeError):
            dsg.query_generator.generate_many(1, bogus_kwarg=1)

    def test_shortfall_warns_and_accounts_rejections(self, caplog):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=60, seed=4))
        generator = dsg.query_generator
        before = generator.rejected_queries
        with caplog.at_level(logging.WARNING, logger="repro.dsg.query_gen"):
            queries = generator.generate_many(3, start_table="no_such_table")
        assert queries == []
        assert generator.rejected_queries == before + 30
        assert any("generate_many produced 0 of 3" in record.message
                   for record in caplog.records)

    def test_no_warning_when_fulfilled(self, caplog):
        dsg = dsg_for("shopping", 2)
        with caplog.at_level(logging.WARNING, logger="repro.dsg.query_gen"):
            queries = dsg.query_generator.generate_many(2)
        assert len(queries) == 2
        assert not caplog.records


# ----------------------------------------------------- generator determinism


class TestGeneratorStreams:
    def test_zero_probabilities_leave_stream_untouched(self):
        # The widened grammar must not consume RNG draws while disabled:
        # a seeded campaign replays byte-identically whether the generator
        # routes through generate() or generate_statement().
        plain = DSG(DSGConfig(dataset="shopping", dataset_rows=90, seed=6))
        routed = DSG(DSGConfig(dataset="shopping", dataset_rows=90, seed=6))
        for _ in range(12):
            left = plain.generate_query()
            right = routed.generate_statement()
            assert isinstance(right, QuerySpec)
            assert left.render() == right.render()

    def test_statement_generation_is_deterministic(self):
        def renders(seed):
            dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=90, seed=seed,
                                generation=dataclasses_replace(WIDE_GENERATION)))
            return [dsg.generate_statement().render() for _ in range(15)]

        assert renders(8) == renders(8)
        shapes = renders(8)
        assert any("UNION" in sql or "INTERSECT" in sql or "EXCEPT" in sql
                   for sql in shapes)
        assert any("WITH cte0 AS" in sql for sql in shapes)
        assert any("sq0" in sql or "sq1" in sql for sql in shapes)


# ------------------------------------------------ scalar subquery semantics


class TestScalarSubquery:
    def test_resolve_rows(self):
        assert is_null(ScalarSubquery.resolve_rows([]))
        assert ScalarSubquery.resolve_rows([(7,)]) == 7
        with pytest.raises(Exception):
            ScalarSubquery.resolve_rows([(1,), (2,)])

    def test_generated_subqueries_are_single_row(self):
        # Every generated scalar subquery is an aggregate with no GROUP BY —
        # the construction that makes multi-row divergence (SQLite picks the
        # first row, DuckDB errors) unreachable.
        found = 0
        for dataset in DATASETS:
            for seed in SEEDS:
                for statement in statement_pool(dataset, seed):
                    arms = (statement.arms
                            if isinstance(statement, CompoundQuerySpec)
                            else [statement])
                    for arm in arms:
                        for item in arm.select:
                            if isinstance(item.expression, ScalarSubquery):
                                found += 1
                                inner = item.expression.subquery
                                assert inner.has_aggregates()
                                assert not inner.group_by
        assert found > 0


# --------------------------------------- satellite 4: rendered SQL on SQLite


@settings(max_examples=40, deadline=None)
@given(
    dataset=st.sampled_from(DATASETS),
    seed=st.sampled_from(SEEDS),
    index=st.integers(0, POOL_SIZE - 1),
)
def test_render_roundtrip_on_sqlite(dataset, seed, index):
    """Rendered SQL for every statement shape parses and runs on SQLite."""
    dsg = dsg_for(dataset, seed)
    statement = statement_pool(dataset, seed)[index]
    key = (dataset, seed)
    if key not in _BACKEND_CACHE:
        backend = SQLiteBackend()
        backend.deploy(dsg.database)
        _BACKEND_CACHE[key] = backend
    backend = _BACKEND_CACHE[key]
    execution = backend.execute(statement)
    reference = reference_engine(dsg.database).execute(statement)
    assert result_sets_match(reference, execution.result,
                             bag=preserves_duplicates(statement))


_BACKEND_CACHE = {}


# -------------------------------------------------- satellite 6: wire codec


class TestWireConfig:
    def test_grammar_probabilities_roundtrip(self):
        config = CampaignConfig(setop_probability=0.4,
                                scalar_subquery_probability=0.3,
                                cte_probability=0.25)
        decoded = decode_campaign_config(encode_campaign_config(config))
        assert decoded == config
        assert decoded.setop_probability == 0.4
        assert decoded.scalar_subquery_probability == 0.3
        assert decoded.cte_probability == 0.25

    def test_unknown_field_is_rejected(self):
        # A peer still sending a retired config field fails loudly instead
        # of having the field silently dropped.
        encoded = encode_campaign_config(CampaignConfig())
        encoded["retired_field"] = "row"
        with pytest.raises(ProtocolError, match="retired_field"):
            decode_campaign_config(encoded)

    def test_spec_passes_probabilities_to_generation(self):
        spec = CampaignSpec(kind="differential", setop_probability=0.2,
                            scalar_subquery_probability=0.1,
                            cte_probability=0.05)
        generation = spec.campaign_config().dsg_config().generation
        assert generation.setop_probability == 0.2
        assert generation.scalar_subquery_probability == 0.1
        assert generation.cte_probability == 0.05


# --------------------------------------------------- acceptance: the campaign


class TestWidenedCampaign:
    def test_sqlite_campaign_500_comparisons_zero_false_positives(self):
        spec = CampaignSpec(
            kind="differential", backend="sqlite",
            dataset="shopping", dataset_rows=100,
            hours=5, queries_per_hour=110, seed=13,
            use_query_cache=True,
            setop_probability=0.4,
            scalar_subquery_probability=0.3,
            cte_probability=0.25,
        )
        result = run_campaign(spec)
        final = result.final
        assert final.queries_executed >= 500
        assert final.bug_count == 0

    def test_oracle_handles_every_pool_statement(self):
        dsg = dsg_for("shopping", 1)
        backend = SQLiteBackend()
        backend.deploy(dsg.database)
        oracle = DifferentialOracle(reference_engine(dsg.database), backend)
        try:
            for statement in statement_pool("shopping", 1):
                outcome = oracle.check(statement)
                assert not outcome.detected, outcome.sql
        finally:
            backend.close()
