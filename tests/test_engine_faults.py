"""Tests for the engine facade, result sets, fault injection and dialect profiles."""

import pytest

from repro.engine import (
    ALL_DIALECTS,
    ActiveFaults,
    BugSpec,
    Engine,
    FaultTrigger,
    ResultSet,
    SIM_MARIADB,
    SIM_MYSQL,
    SIM_TIDB,
    SIM_XDB,
    dialect_by_name,
    reference_engine,
)
from repro.engine.faults import HASH_BASED_ALGORITHMS
from repro.errors import ReproError
from repro.expr import ColumnRef, column
from repro.optimizer import (
    hash_join_hints,
    join_cache_off_hints,
    merge_join_hints,
    nested_loop_hints,
    standard_hint_sets,
)
from repro.plan import (
    JoinAlgorithm,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    TableRef,
    TriggerContext,
)
from repro.sqlvalue import NULL


class TestResultSet:
    def test_set_comparison_ignores_order_and_duplicates(self):
        left = ResultSet(["a"], [(1,), (2,), (2,)])
        right = ResultSet(["a"], [(2,), (1,)])
        assert left.same_rows(right)

    def test_numeric_normalization_in_comparison(self):
        left = ResultSet(["a"], [(1,)])
        right = ResultSet(["a"], [(1.0,)])
        assert left.same_rows(right)

    def test_contains_all(self):
        big = ResultSet(["a"], [(1,), (2,), (3,)])
        small = ResultSet(["a"], [(2,)])
        assert big.contains_all(small)
        assert not small.contains_all(big)

    def test_render_handles_empty_and_nulls(self):
        empty = ResultSet(["a", "b"], [])
        assert "(empty set)" in empty.render()
        with_null = ResultSet(["a"], [(NULL,)])
        assert "NULL" in with_null.render()

    def test_column_values(self):
        rs = ResultSet(["a", "b"], [(1, "x"), (2, "y")])
        assert rs.column_values("b") == ["x", "y"]


class TestFaultTrigger:
    def test_matching_conditions(self):
        trigger = FaultTrigger(
            algorithms=HASH_BASED_ALGORITHMS,
            join_types=frozenset({JoinType.SEMI}),
            require_materialization=True,
        )
        ctx = TriggerContext(algorithm=JoinAlgorithm.HASH, join_type=JoinType.SEMI,
                             materialization=True)
        assert trigger.matches(ctx)
        assert not trigger.matches(
            TriggerContext(algorithm=JoinAlgorithm.NESTED_LOOP,
                           join_type=JoinType.SEMI, materialization=True)
        )
        assert not trigger.matches(
            TriggerContext(algorithm=JoinAlgorithm.HASH, join_type=JoinType.SEMI,
                           materialization=False)
        )

    def test_disabled_switch_requirement(self):
        trigger = FaultTrigger(requires_disabled_switches=frozenset({"join_cache_bka"}))
        assert not trigger.matches(TriggerContext())
        assert trigger.matches(
            TriggerContext(disabled_switches=frozenset({"join_cache_bka", "other"}))
        )

    def test_plan_independence_classification(self):
        assert FaultTrigger(join_types=frozenset({JoinType.INNER})).plan_independent
        assert not FaultTrigger(algorithms=HASH_BASED_ALGORITHMS).plan_independent
        assert not FaultTrigger(requires_disabled_switches=frozenset({"semijoin"})).plan_independent


class TestBugSpec:
    def test_invalid_seam_rejected(self):
        with pytest.raises(ReproError):
            BugSpec(1, "X", "bogus_seam", "x", FaultTrigger())

    def test_invalid_behavior_rejected(self):
        with pytest.raises(ReproError):
            BugSpec(1, "X", "join_key", "not_a_behavior", FaultTrigger())
        with pytest.raises(ReproError):
            BugSpec(1, "X", "null_pad", "not_a_behavior", FaultTrigger())

    def test_active_faults_lookup(self):
        faults = ActiveFaults(SIM_MYSQL.bugs)
        assert faults.bug_by_id(1).dbms == "SimMySQL"
        with pytest.raises(ReproError):
            faults.bug_by_id(999)
        assert len(faults) == 7


class TestDialectProfiles:
    def test_table4_bug_type_counts(self):
        assert SIM_MYSQL.bug_type_count == 7
        assert SIM_MARIADB.bug_type_count == 5
        assert SIM_TIDB.bug_type_count == 5
        assert SIM_XDB.bug_type_count == 3

    def test_bug_ids_are_unique_and_cover_1_to_20(self):
        ids = [bug.bug_id for profile in ALL_DIALECTS for bug in profile.bugs]
        assert sorted(ids) == list(range(1, 21))

    def test_every_dialect_has_a_plan_independent_bug_or_not(self):
        # MySQL and X-DB seed plan-independent bugs (needed for the GT ablation).
        assert SIM_MYSQL.active_faults().plan_independent_ids()
        assert SIM_XDB.active_faults().plan_independent_ids()

    def test_dialect_by_name(self):
        assert dialect_by_name("simmysql") is SIM_MYSQL
        with pytest.raises(KeyError):
            dialect_by_name("oracle")


def left_join_query() -> QuerySpec:
    return QuerySpec(
        base=TableRef("orders", "orders"),
        joins=[JoinStep(TableRef("users", "users"), JoinType.LEFT_OUTER,
                        left_key=ColumnRef("orders", "userId"),
                        right_key=ColumnRef("users", "userId"))],
        select=[SelectItem(column("orders", "orderId")),
                SelectItem(column("users", "userName"))],
    )


class TestEngineExecution:
    def test_reference_engine_is_hint_insensitive(self, orders_db):
        engine = reference_engine(orders_db)
        results = {
            engine.execute(left_join_query(), hints).normalized()
            for hints in standard_hint_sets()
        }
        assert len(results) == 1
        assert engine.queries_executed == len(standard_hint_sets())

    def test_engine_name(self, orders_db):
        assert reference_engine(orders_db).name == "ReferenceEngine"
        assert "SimMySQL" in Engine(orders_db, SIM_MYSQL).name

    def test_explain_returns_plan_text(self, orders_db):
        engine = reference_engine(orders_db)
        text = engine.explain(left_join_query(), hash_join_hints())
        assert "Join[left_outer/hash]" in text

    def test_xdb_left_join_bug_fires_on_every_plan(self, orders_db):
        engine = Engine(orders_db, SIM_XDB)
        observed = set()
        for hints in (hash_join_hints(), nested_loop_hints(), merge_join_hints()):
            report = engine.execute_with_report(left_join_query(), hints)
            assert 18 in report.fired_bug_ids
            observed.add(report.result.normalized())
        # Plan-independent: every plan returns the same (wrong) result.
        assert len(observed) == 1
        reference = reference_engine(orders_db).execute(left_join_query())
        assert observed.pop() != reference.normalized()

    def test_mariadb_join_cache_bug_changes_result(self, orders_db):
        engine = Engine(orders_db, SIM_MARIADB)
        good = engine.execute(left_join_query(), hash_join_hints())
        bad = engine.execute(left_join_query(),
                             join_cache_off_hints("outer_join_with_cache"))
        assert good.normalized() != bad.normalized()

    def test_clean_hooks_never_fire(self, orders_db):
        engine = reference_engine(orders_db)
        report = engine.execute_with_report(left_join_query())
        assert report.fired_bug_ids == ()

    def test_execute_all_hints_returns_one_report_per_hint(self, orders_db):
        engine = Engine(orders_db, SIM_MYSQL)
        hint_sets = standard_hint_sets()[:5]
        reports = engine.execute_all_hints(left_join_query(), hint_sets)
        assert [r.hints.name for r in reports] == [h.name for h in hint_sets]


def anti_join_query() -> QuerySpec:
    return QuerySpec(
        base=TableRef("goods", "goods"),
        joins=[JoinStep(TableRef("orders", "orders"), JoinType.ANTI,
                        left_key=ColumnRef("goods", "goodsId"),
                        right_key=ColumnRef("orders", "goodsId"))],
        select=[SelectItem(column("goods", "goodsName"))],
    )


class TestTriggerResolutionMemo:
    """ActiveFaults resolves a trigger's matching bugs once and reuses them;
    the reuse must never leak one trigger's matches into another."""

    def test_interleaved_queries_match_fresh_engines(self, orders_db):
        hint_sets = standard_hint_sets()
        fired = set()
        for dialect in ALL_DIALECTS:
            shared = Engine(orders_db, dialect)
            for position, x in enumerate(hint_sets):
                y = hint_sets[(position + 1) % len(hint_sets)]
                for query, hints in ((left_join_query(), x), (anti_join_query(), y),
                                     (left_join_query(), x)):
                    got = shared.execute_with_report(query, hints)
                    fresh = Engine(orders_db, dialect).execute_with_report(query, hints)
                    assert got.result.rows == fresh.result.rows
                    assert got.fired_bug_ids == fresh.fired_bug_ids
                    fired.update(got.fired_bug_ids)
        assert fired  # the interleaving exercised seeded bugs, not only clean runs

    def test_threads_sharing_faults_see_their_own_trigger(self):
        import sys
        import threading

        bugs = [bug for profile in ALL_DIALECTS for bug in profile.bugs]
        faults = ActiveFaults(bugs)
        triggers = [
            TriggerContext(algorithm=JoinAlgorithm.HASH, join_type=JoinType.SEMI,
                           materialization=True),
            TriggerContext(algorithm=JoinAlgorithm.NESTED_LOOP,
                           join_type=JoinType.LEFT_OUTER, join_cache_level=0,
                           has_null_keys=True),
            TriggerContext(algorithm=JoinAlgorithm.SORT_MERGE,
                           join_type=JoinType.INNER),
            TriggerContext(algorithm=JoinAlgorithm.BLOCK_NESTED_LOOP_HASH,
                           join_type=JoinType.ANTI, has_null_keys=True),
        ]
        seams = ("flag", "join_key", "null_pad")
        expected = {
            (seam, index): [bug for bug in bugs
                            if bug.seam == seam and bug.trigger.matches(trigger)]
            for seam in seams
            for index, trigger in enumerate(triggers)
        }
        assert len({tuple(expected[("flag", i)]) for i in range(len(triggers))}) > 1
        mismatches = []
        # More threads than cores, so they preempt one another mid-lookup.
        workers = 2 * len(triggers)
        start = threading.Barrier(workers)

        def worker(index):
            start.wait()
            for _ in range(1000):
                for seam in seams:
                    if faults._matching(seam, triggers[index]) != expected[(seam, index)]:
                        mismatches.append((seam, index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n % len(triggers),))
                       for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
