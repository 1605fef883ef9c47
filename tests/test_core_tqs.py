"""Tests for bug logs, reduction, the TQS loop and its ablation switches."""

from repro.core import BugIncident, BugLog, QueryReducer, TQS, TQSConfig
from repro.dsg import DSG, DSGConfig
from repro.engine import Engine, SIM_MYSQL, SIM_XDB, reference_engine
from repro.expr import ColumnRef, column
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef


def incident(bug_ids=(1,), label="L1", hint="hash_join", mode="ground_truth"):
    return BugIncident(
        dbms="SimMySQL 8.0.28",
        query_sql="SELECT 1;",
        hint_name=hint,
        detection_mode=mode,
        query_canonical_label=label,
        fired_bug_ids=tuple(bug_ids),
        expected_rows=2,
        observed_rows=1,
    )


class TestBugLog:
    def test_dedup_by_root_cause_and_structure(self):
        log = BugLog()
        assert log.record(incident()) is True
        assert log.record(incident(hint="merge_join")) is False  # same bug, same shape
        assert log.record(incident(label="L2")) is True
        assert log.record(incident(bug_ids=(2,))) is True
        assert log.bug_count == 3
        assert log.bug_types == {1, 2}
        assert len(log.incidents) == 4

    def test_incidents_for_type(self):
        log = BugLog()
        log.record(incident(bug_ids=(1, 2)))
        log.record(incident(bug_ids=(3,)))
        assert len(log.incidents_for_type(2)) == 1
        assert log.incidents_for_type(9) == []

    def test_summary_mentions_counts(self):
        log = BugLog()
        log.record(incident())
        assert "1 bugs of 1 types" in log.summary()

    def test_root_cause_frozenset(self):
        assert incident(bug_ids=(2, 1)).root_cause == frozenset({1, 2})


class TestTQSLoop:
    def test_iteration_outcome_structure(self, shopping_dsg):
        engine = Engine(shopping_dsg.database, SIM_MYSQL)
        tqs = TQS(shopping_dsg, engine, TQSConfig(seed=1))
        outcome = tqs.run_iteration()
        assert outcome.executions > 1
        assert outcome.canonical_label
        assert tqs.queries_generated == 1
        assert tqs.queries_executed == outcome.executions

    def test_run_accumulates_bugs_against_buggy_engine(self, shopping_dsg):
        engine = Engine(shopping_dsg.database, SIM_MYSQL)
        tqs = TQS(shopping_dsg, engine, TQSConfig(seed=2))
        log = tqs.run(25)
        assert log.bug_count > 0
        assert log.bug_types <= {bug.bug_id for bug in SIM_MYSQL.bugs}
        assert tqs.explored_isomorphic_sets > 1

    def test_clean_engine_produces_no_bugs(self, shopping_dsg):
        engine = reference_engine(shopping_dsg.database)
        tqs = TQS(shopping_dsg, engine, TQSConfig(seed=3))
        log = tqs.run(15)
        assert log.bug_count == 0
        assert log.incidents == []

    def test_differential_mode_misses_plan_independent_bugs(self):
        """The TQS!GT ablation cannot see X-DB's plan-independent rewrite bug."""
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=100, seed=41))
        engine = Engine(dsg.database, SIM_XDB)
        with_gt = TQS(dsg, engine, TQSConfig(seed=41, use_ground_truth=True))
        without_gt = TQS(dsg, Engine(dsg.database, SIM_XDB),
                         TQSConfig(seed=41, use_ground_truth=False))
        log_gt = with_gt.run(40)
        log_diff = without_gt.run(40)
        assert 18 in log_gt.bug_types           # ground truth sees the rewrite bug
        assert 18 not in log_diff.bug_types     # differential testing cannot
        assert log_gt.bug_type_count >= log_diff.bug_type_count

    def test_incident_records_detection_mode(self, shopping_dsg):
        engine = Engine(shopping_dsg.database, SIM_MYSQL)
        tqs = TQS(shopping_dsg, engine, TQSConfig(seed=5))
        tqs.run(20)
        modes = {i.detection_mode for i in tqs.bug_log.incidents}
        assert modes <= {"ground_truth"}

    def test_reduction_produces_smaller_failing_query(self):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=100, seed=43))
        engine = Engine(dsg.database, SIM_XDB)
        tqs = TQS(dsg, engine, TQSConfig(seed=43, reduce_failures=True))
        tqs.run(25)
        minimized = [i for i in tqs.bug_log.incidents if i.minimized_sql]
        assert minimized
        for item in minimized:
            assert len(item.minimized_sql) <= len(item.query_sql) + 40


class TestQueryReducer:
    def _three_table_query(self, dsg):
        hub = dsg.ndb.hub_table
        fks = [fk for fk in dsg.ndb.schema.foreign_keys if fk.table == hub]
        joins = []
        select = [SelectItem(column(hub, dsg.ndb.data_columns(hub)[0]))]
        for fk in fks[:2]:
            joins.append(JoinStep(TableRef(fk.ref_table, fk.ref_table), JoinType.INNER,
                                  left_key=ColumnRef(hub, fk.columns[0]),
                                  right_key=ColumnRef(fk.ref_table, fk.columns[0])))
        return QuerySpec(base=TableRef(hub, hub), joins=joins, select=select)

    def test_reducer_drops_irrelevant_joins(self, shopping_dsg):
        query = self._three_table_query(shopping_dsg)
        target_alias = query.joins[0].table.alias

        def still_fails(candidate: QuerySpec) -> bool:
            return any(step.table.alias == target_alias for step in candidate.joins)

        reducer = QueryReducer(still_fails)
        reduced = reducer.reduce(query)
        assert len(reduced.joins) == 1
        assert reduced.joins[0].table.alias == target_alias
        assert reducer.attempts > 0

    def test_reducer_keeps_query_when_predicate_fails_immediately(self, shopping_dsg):
        query = self._three_table_query(shopping_dsg)
        reducer = QueryReducer(lambda candidate: False)
        assert reducer.reduce(query) == query

    def test_reducer_drops_where_clause(self, shopping_dsg):
        from repro.expr import eq, lit

        query = self._three_table_query(shopping_dsg)
        hub = query.base.alias
        query.where = eq(column(hub, shopping_dsg.ndb.data_columns(hub)[0]), lit("x"))
        reducer = QueryReducer(lambda candidate: True)
        reduced = reducer.reduce(query)
        assert reduced.where is None
        assert len(reduced.select) == 1
