"""Tests for the engine facade, result sets, fault injection and dialect profiles."""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    ALL_DIALECTS,
    ActiveFaults,
    BugSpec,
    Engine,
    FaultTrigger,
    Relation,
    ResultSet,
    SIM_MARIADB,
    SIM_MYSQL,
    SIM_TIDB,
    SIM_XDB,
    agree,
    dialect_by_name,
    reference_engine,
)
from repro.engine.faults import HASH_BASED_ALGORITHMS, KEY_BEHAVIORS, PAD_BEHAVIORS
from repro.errors import ReproError
from repro.expr import ColumnRef, column
from repro.optimizer import (
    DEFAULT_SWITCHES,
    hash_join_hints,
    join_cache_off_hints,
    merge_join_hints,
    nested_loop_hints,
    standard_hint_sets,
)
from repro.plan import (
    EFFECT_NAMES,
    MATCHING_EFFECT_NAMES,
    ExecutionHooks,
    JoinAlgorithm,
    JoinStep,
    JoinType,
    QuerySpec,
    SelectItem,
    TableRef,
    TriggerContext,
)
from repro.sqlvalue import NULL, TypeCategory


class TestResultSet:
    def test_set_comparison_ignores_order_and_duplicates(self):
        left = ResultSet(["a"], [(1,), (2,), (2,)])
        right = ResultSet(["a"], [(2,), (1,)])
        assert agree(left, right, Relation.SET_EQUAL)

    def test_numeric_normalization_in_comparison(self):
        left = ResultSet(["a"], [(1,)])
        right = ResultSet(["a"], [(1.0,)])
        assert agree(left, right, Relation.SET_EQUAL)

    def test_subset_relation(self):
        big = ResultSet(["a"], [(1,), (2,), (3,)])
        small = ResultSet(["a"], [(2,)])
        assert agree(small, big, Relation.SUBSET)
        assert not agree(big, small, Relation.SUBSET)

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
        first, *rest = [engine.execute(left_join_query(), hints)
                        for hints in standard_hint_sets()]
        assert all(agree(first, result, Relation.SET_EQUAL) for result in rest)
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
        observed = []
        for hints in (hash_join_hints(), nested_loop_hints(), merge_join_hints()):
            report = engine.execute_with_report(left_join_query(), hints)
            assert 18 in report.fired_bug_ids
            observed.append(report.result)
        # Plan-independent: every plan returns the same (wrong) result.
        first, *rest = observed
        assert all(agree(first, result, Relation.SET_EQUAL) for result in rest)
        reference = reference_engine(orders_db).execute(left_join_query())
        assert not agree(reference, first, Relation.SET_EQUAL)

    def test_mariadb_join_cache_bug_changes_result(self, orders_db):
        engine = Engine(orders_db, SIM_MARIADB)
        good = engine.execute(left_join_query(), hash_join_hints())
        bad = engine.execute(left_join_query(),
                             join_cache_off_hints("outer_join_with_cache"))
        assert not agree(good, bad, Relation.SET_EQUAL)

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
        # What the public seams must answer, read off the expected lists:
        # each flag effect, the padding value and the key function's
        # results on a few probe keys.
        effects = sorted({bug.behavior for bug in bugs if bug.seam == "flag"})
        probes = (Decimal("-0"), -0.0, 2.5, 7, "7.25")

        def expected_key(index, value):
            matching = expected[("join_key", index)]
            if not matching:
                return ExecutionHooks().key_function(
                    TypeCategory.DECIMAL, triggers[index])(value)
            for bug in matching:
                value = KEY_BEHAVIORS[bug.behavior](value, TypeCategory.DECIMAL)
            return value

        answers = [
            (tuple(any(bug.behavior == effect for bug in expected[("flag", index)])
                   for effect in effects),
             PAD_BEHAVIORS[expected[("null_pad", index)][0].behavior]
             if expected[("null_pad", index)] else NULL,
             tuple(expected_key(index, value) for value in probes))
            for index in range(len(triggers))
        ]
        mismatches = []
        # More threads than cores, so they preempt one another mid-lookup.
        workers = 2 * len(triggers)
        start = threading.Barrier(workers)

        def worker(index):
            trigger = triggers[index]
            start.wait()
            for _ in range(1000):
                key_of = faults.key_function(TypeCategory.DECIMAL, trigger)
                got = (tuple(faults.flag(effect, trigger) for effect in effects),
                       faults.null_pad_value("c", trigger),
                       tuple(key_of(value) for value in probes))
                if got != answers[index]:
                    mismatches.append(index)

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


# ------------------------------------------------------------ bitmask matching

TRIGGER_CONTEXTS = st.builds(
    TriggerContext,
    algorithm=st.sampled_from([None, *JoinAlgorithm]),
    join_type=st.sampled_from([None, *JoinType]),
    key_domain=st.sampled_from([None, *TypeCategory]),
    materialization=st.booleans(),
    semijoin_transform=st.booleans(),
    join_cache_level=st.integers(1, 8),
    derived_from_subquery=st.booleans(),
    has_null_keys=st.booleans(),
    disabled_switches=st.frozensets(st.sampled_from(sorted(DEFAULT_SWITCHES))),
)

BUG_LISTS = {
    **{profile.name: profile.bugs for profile in ALL_DIALECTS},
    "all": tuple(bug for profile in ALL_DIALECTS for bug in profile.bugs),
}


def _optional(strategy):
    return st.none() | strategy


FAULT_TRIGGERS = st.builds(
    FaultTrigger,
    algorithms=_optional(st.frozensets(st.sampled_from(list(JoinAlgorithm)), min_size=1)),
    join_types=_optional(st.frozensets(st.sampled_from(list(JoinType)), min_size=1)),
    key_domains=_optional(st.frozensets(st.sampled_from(list(TypeCategory)), min_size=1)),
    require_materialization=_optional(st.booleans()),
    require_semijoin_transform=_optional(st.booleans()),
    max_join_cache_level=_optional(st.integers(1, 8)),
    requires_disabled_switches=st.frozensets(
        st.sampled_from(sorted(DEFAULT_SWITCHES)), max_size=2),
    require_null_keys=_optional(st.booleans()),
    require_derived_from_subquery=_optional(st.booleans()),
)

#: Bug lists over every seam, behaviour and trigger condition, the ones no
#: seeded bug uses (NULL keys, derived from a subquery) included.
GENERATED_BUGS = st.lists(st.builds(
    lambda bug_id, seam_behavior, trigger: BugSpec(
        bug_id=bug_id, dbms="test", seam=seam_behavior[0],
        behavior=seam_behavior[1], trigger=trigger),
    st.integers(1, 99),
    st.sampled_from([("flag", effect) for effect in EFFECT_NAMES]
                    + [("join_key", behavior) for behavior in KEY_BEHAVIORS]
                    + [("null_pad", behavior) for behavior in PAD_BEHAVIORS]),
    FAULT_TRIGGERS,
), max_size=12)


def spelt_out_match(trigger: FaultTrigger, ctx: TriggerContext) -> bool:
    """Whether *trigger* matches *ctx*, each condition written out on its own."""
    return (
        (trigger.algorithms is None or ctx.algorithm in trigger.algorithms)
        and (trigger.join_types is None or ctx.join_type in trigger.join_types)
        and (trigger.key_domains is None or ctx.key_domain in trigger.key_domains)
        and (trigger.require_materialization is None
             or ctx.materialization == trigger.require_materialization)
        and (trigger.require_semijoin_transform is None
             or ctx.semijoin_transform == trigger.require_semijoin_transform)
        and (trigger.max_join_cache_level is None
             or ctx.join_cache_level <= trigger.max_join_cache_level)
        and trigger.requires_disabled_switches <= ctx.disabled_switches
        and (trigger.require_null_keys is None
             or ctx.has_null_keys == trigger.require_null_keys)
        and (trigger.require_derived_from_subquery is None
             or ctx.derived_from_subquery == trigger.require_derived_from_subquery)
    )


def positions_key(bugs, ctx: TriggerContext):
    """A behaviour key spelt out: the positions of the bugs matching *ctx*
    with and without NULL keys, and the matching routine when one of them is
    read inside a routine."""
    positions = tuple(
        tuple(position for position, bug in enumerate(bugs)
              if bug.trigger.matches(ctx._replace(has_null_keys=null_keys)))
        for null_keys in (False, True)
    )
    reads_routine = any(
        bugs[position].seam == "join_key"
        or (bugs[position].seam == "flag"
            and bugs[position].behavior in MATCHING_EFFECT_NAMES)
        for matched in positions for position in matched)
    return positions, ctx.algorithm.matching if reads_routine else None


def check_masks(bugs, contexts):
    """Each seam's bugs equal the bugs its triggers match, in declaration
    order, and behaviour keys are equal exactly when spelt-out keys are."""
    # One ActiveFaults and several contexts through it, so the masks filled
    # for one context serve the next.
    faults = ActiveFaults(bugs)
    keys = []
    for ctx in contexts:
        matching = [bug for bug in bugs if bug.trigger.matches(ctx)]
        assert matching == [bug for bug in bugs if spelt_out_match(bug.trigger, ctx)]
        for seam in ("flag", "join_key", "null_pad"):
            assert (faults._bugs_of(faults._seam_bugs(seam, ctx))
                    == [bug for bug in matching if bug.seam == seam])
        if ctx.algorithm is not None:  # a planned trigger names its algorithm
            keys.append((faults.behaviour_key(ctx), positions_key(bugs, ctx)))
    for key, spelt_out in keys:
        for other_key, other_spelt_out in keys:
            assert (key == other_key) == (spelt_out == other_spelt_out)


@pytest.mark.parametrize("bugs", BUG_LISTS.values(), ids=BUG_LISTS.keys())
@given(contexts=st.lists(TRIGGER_CONTEXTS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_masks_match_the_bugs_the_triggers_match(bugs, contexts):
    check_masks(bugs, contexts)


@given(bugs=GENERATED_BUGS, contexts=st.lists(TRIGGER_CONTEXTS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_masks_match_generated_bugs_over_every_condition(bugs, contexts):
    check_masks(bugs, contexts)


@pytest.mark.parametrize("dataset", ["shopping", "tpch", "kddcup"])
def test_each_seam_mask_is_computed_once_per_campaign(dataset, monkeypatch):
    """Joins hand their seams the planner's execution triggers, so a second
    pass over the same queries computes no trigger's mask again, and the
    masks kept are bounded by the planner's trigger memo."""
    from repro.dsg import DSG, DSGConfig

    dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=20, seed=5))
    engine = Engine(dsg.database, SIM_MYSQL)
    stream = []
    for _ in range(40):
        query = dsg.generate_query()
        stream.append((query, dsg.hint_generator.hint_sets_for(query)))
    for query, hint_sets in stream:
        engine.execute_all_hints(query, hint_sets)
    computed = []
    planned_mask = ActiveFaults._planned_mask

    def counting(faults, trigger):
        computed.append(trigger)
        return planned_mask(faults, trigger)

    monkeypatch.setattr(ActiveFaults, "_planned_mask", counting)
    for query, hint_sets in stream:
        engine.execute_all_hints(query, hint_sets)
    assert computed == []
    masks = engine.hooks._trigger_masks
    assert masks
    execution_triggers = {
        trigger
        for contexts in engine.planner._triggers.values()
        for algorithms in contexts.values()
        for _planned, pair in algorithms.values()
        for trigger in pair}
    assert set(masks) <= execution_triggers
