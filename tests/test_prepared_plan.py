"""A query prepared once and planned per hint set acts like one planned afresh.

:meth:`Engine.execute_all_hints` prepares a join query once and sends every
hint set through that prepared query, which reuses the query-only planning
state and the compiled closures without subqueries, and runs hint sets with
equal execution keys once.  Each hint set must still give what a fresh
``execute_with_report(query, hints)`` gives: the same rows in the same order,
the same fired bug ids and the same plan text.
"""

from __future__ import annotations

import pytest

from repro import CampaignSpec, obs, run_campaign
from repro.core import differential
from repro.engine import Engine
from repro.engine.dialects import ALL_DIALECTS, SIM_MARIADB, SIM_TIDB, SIM_XDB
from repro.engine.faults import ActiveFaults, BugSpec, FaultTrigger
from repro.errors import PlanError
from repro.expr import (
    And,
    ColumnRef,
    Comparison,
    ExistsSubquery,
    InSubquery,
    column,
    lit,
)
from repro.expr.ast import ScalarSubquery
from repro.optimizer import (
    bnlh_join_hints,
    default_hints,
    hash_join_hints,
    join_cache_off_hints,
    join_order_hints,
    merge_join_hints,
    standard_hint_sets,
)
from repro.optimizer.planner import PreparedQuery
from repro.plan import (
    MATCHING_EFFECT_NAMES,
    AggregateFunction,
    CompoundQuerySpec,
    ExecutionHooks,
    JoinAlgorithm,
    JoinStep,
    JoinType,
    OrderItem,
    QuerySpec,
    SelectItem,
    SetOperator,
    TableRef,
)

#: The standard hint sets plus one that swaps the two join steps, so that
#: the later operators see another layout.
HINT_SETS = standard_hint_sets() + [join_order_hints(("o", "g", "u"))]

DIALECTS = [None] + list(ALL_DIALECTS)


def goods_ids(where=None):
    """``SELECT g2.goodsId FROM goods g2 LEFT JOIN orders o2 ... [WHERE ...]``.

    Its join fires seeded faults under some hint sets, so a subquery run
    under the wrong plan's hints shows in the fired ids.
    """
    return QuerySpec(
        base=TableRef("goods", "g2"),
        joins=[JoinStep(TableRef("orders", "o2"), JoinType.LEFT_OUTER,
                        left_key=ColumnRef("g2", "goodsId"),
                        right_key=ColumnRef("o2", "goodsId"))],
        select=[SelectItem(column("g2", "goodsId"))], where=where)


def max_price():
    """A single-row scalar subquery over a semi-join: the top ordered price."""
    return QuerySpec(
        base=TableRef("goods", "g3"),
        joins=[JoinStep(TableRef("orders", "o3"), JoinType.SEMI,
                        left_key=ColumnRef("g3", "goodsId"),
                        right_key=ColumnRef("o3", "goodsId"))],
        select=[SelectItem(column("g3", "price"),
                           aggregate=AggregateFunction.MAX)])


def two_joins(user_join, goods_condition=None, **clauses):
    """``orders o`` joined to ``users u`` by *user_join*, then to ``goods g``."""
    user_keys = {} if user_join is JoinType.CROSS else dict(
        left_key=ColumnRef("o", "userId"), right_key=ColumnRef("u", "userId"))
    clauses.setdefault("select", [SelectItem(column("o", "orderId")),
                                  SelectItem(column("g", "goodsName"))])
    return QuerySpec(
        base=TableRef("orders", "o"),
        joins=[
            JoinStep(TableRef("users", "u"), user_join, **user_keys),
            JoinStep(TableRef("goods", "g"), JoinType.LEFT_OUTER,
                     left_key=ColumnRef("o", "goodsId"),
                     right_key=ColumnRef("g", "goodsId"),
                     extra_condition=goods_condition),
        ],
        **clauses,
    )


QUERIES = {
    **{f"join-{join_type.value}": two_joins(join_type) for join_type in JoinType},
    "residual-condition": two_joins(
        JoinType.INNER,
        goods_condition=Comparison(">", column("g", "price"), lit(6))),
    "group-by": two_joins(
        JoinType.INNER,
        select=[SelectItem(column("o", "userId")),
                SelectItem(column("g", "goodsId"),
                           aggregate=AggregateFunction.COUNT),
                SelectItem(column("g", "price"), aggregate=AggregateFunction.SUM)],
        group_by=[column("o", "userId")]),
    "order-by-limit": two_joins(
        JoinType.LEFT_OUTER,
        select=[SelectItem(column("o", "orderId")), SelectItem(column("g", "price"))],
        order_by=[OrderItem(column("g", "price"), descending=True),
                  OrderItem(column("o", "orderId"))],
        limit=3, distinct=False),
    "in-subquery-where": two_joins(
        JoinType.INNER,
        where=InSubquery(column("o", "goodsId"),
                         goods_ids(Comparison(">", column("g2", "price"), lit(6))))),
    "exists-where": two_joins(
        JoinType.LEFT_OUTER,
        where=And(ExistsSubquery(goods_ids()),
                  Comparison("<>", column("o", "orderId"), lit("0002")))),
    "scalar-select": two_joins(
        JoinType.INNER,
        select=[SelectItem(column("o", "orderId")),
                SelectItem(ScalarSubquery(max_price()), alias="top")]),
    "in-subquery-select": two_joins(
        JoinType.FULL_OUTER,
        select=[SelectItem(column("o", "orderId")),
                SelectItem(InSubquery(column("g", "goodsId"), goods_ids()),
                           alias="known")]),
    "subquery-join-condition": two_joins(
        JoinType.INNER,
        goods_condition=Comparison("<", column("g", "price"),
                                   ScalarSubquery(max_price()))),
    "subquery-order-by": two_joins(
        JoinType.INNER,
        select=[SelectItem(column("o", "orderId")), SelectItem(column("g", "goodsId"))],
        order_by=[OrderItem(InSubquery(column("g", "goodsId"),
                                       goods_ids(Comparison("<", column("g2", "price"),
                                                            lit(12)))))],
        distinct=False),
}


def report_record(report):
    return (report.result.columns, report.result.rows, report.fired_bug_ids,
            report.hints.name, report.plan_description)


def typed_record(report):
    """:func:`report_record` with each value's Python type beside it."""
    rows = tuple(tuple((type(value).__name__, repr(value)) for value in row)
                 for row in report.result.rows)
    return report_record(report) + (rows,)


@pytest.mark.parametrize("dialect", DIALECTS,
                         ids=lambda dialect: getattr(dialect, "name", "clean"))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_prepared_plans_match_fresh_plans(orders_db, dialect, name):
    query = QUERIES[name]
    shared = Engine(orders_db, dialect).execute_all_hints(query, HINT_SETS)
    assert len(shared) == len(HINT_SETS)
    for hints, report in zip(HINT_SETS, shared):
        fresh = Engine(orders_db, dialect).execute_with_report(query, hints)
        assert report_record(report) == report_record(fresh)


GOODS_ORDERS = QuerySpec(
    base=TableRef("goods", "g"),
    joins=[JoinStep(TableRef("orders", "o"), JoinType.INNER,
                    left_key=ColumnRef("g", "goodsId"),
                    right_key=ColumnRef("o", "goodsId"))],
    select=[SelectItem(column("g", "goodsId")), SelectItem(column("o", "orderId"))],
    distinct=False)


@pytest.mark.parametrize("query, effect, trigger, hint_sets", [
    # No algorithm named: the bug matches both plans, and only the matching
    # routine tells the merge join (which consults the seam) apart.
    (GOODS_ORDERS, "merge_join_drop_last_duplicate",
     FaultTrigger(join_types=frozenset({JoinType.INNER})),
     [hash_join_hints(), merge_join_hints()]),
    # The planned triggers (no NULL keys known yet) match neither plan; the
    # NULL user id of order 0005 makes it match under HASH at run time.
    (QUERIES["join-inner"], "inner_join_emit_null_padding",
     FaultTrigger(algorithms=frozenset({JoinAlgorithm.HASH}),
                  require_null_keys=True),
     [hash_join_hints(), bnlh_join_hints()]),
], ids=["matching-routine", "null-keys"])
def test_seeded_faults_keep_apart_plans_they_execute_differently(
        orders_db, query, effect, trigger, hint_sets):
    bugs = [BugSpec(bug_id=1, dbms="test", seam="flag", behavior=effect,
                    trigger=trigger)]
    reports = Engine(orders_db, hooks=ActiveFaults(bugs)).execute_all_hints(
        query, hint_sets)
    assert reports[0].result.rows != reports[1].result.rows
    for hints, report in zip(hint_sets, reports):
        fresh = Engine(orders_db, hooks=ActiveFaults(bugs)).execute_with_report(
            query, hints)
        assert report_record(report) == report_record(fresh)


@pytest.mark.parametrize("dialect, query, fired", [
    # No SimMariaDB bug matches this inner join under either plan.
    (SIM_MARIADB, GOODS_ORDERS, ()),
    # SimXDB's bug 18 turns every LEFT JOIN into an inner join, whatever
    # routine matches its keys.
    (SIM_XDB, QUERIES["join-left_outer"], (18,)),
], ids=["no-fault", "fault-outside-the-routines"])
def test_matching_routines_no_matched_fault_reads_share_one_execution(
        orders_db, dialect, query, fired):
    hint_sets = [hash_join_hints(), merge_join_hints()]
    engine = Engine(orders_db, dialect)
    prepared = engine.planner.prepare(query)
    assert [{decision.algorithm.matching for decision in prepared.decide(hints)}
            for hints in hint_sets] == [{"hash"}, {"merge"}]
    reports = engine.execute_all_hints(query, hint_sets)
    assert reports[0].result is reports[1].result
    assert reports[0].fired_bug_ids == fired
    for hints, report in zip(hint_sets, reports):
        fresh = Engine(orders_db, dialect).execute_with_report(query, hints)
        assert typed_record(report) == typed_record(fresh)


@pytest.mark.parametrize("seam, behavior", [
    *(("flag", effect) for effect in MATCHING_EFFECT_NAMES),
    ("join_key", "round_decimal_constants"),
])
def test_a_matched_fault_read_inside_a_routine_keeps_the_routines_apart(
        orders_db, seam, behavior):
    # The trigger names no algorithm, so the bug matches both plans alike;
    # only the routine that reads it (or applies the key function its own
    # way) can tell them apart.
    bugs = [BugSpec(bug_id=1, dbms="test", seam=seam, behavior=behavior,
                    trigger=FaultTrigger(join_types=frozenset({JoinType.INNER})))]
    hint_sets = [hash_join_hints(), merge_join_hints()]
    reports = Engine(orders_db, hooks=ActiveFaults(bugs)).execute_all_hints(
        GOODS_ORDERS, hint_sets)
    assert reports[0].result is not reports[1].result
    for hints, report in zip(hint_sets, reports):
        fresh = Engine(orders_db, hooks=ActiveFaults(bugs)).execute_with_report(
            GOODS_ORDERS, hints)
        assert typed_record(report) == typed_record(fresh)


CAMPAIGNS = [
    CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=30, hours=4,
                 queries_per_hour=12, seed=21),
    CampaignSpec(kind="tqs", dialect="SimMariaDB", dataset="kddcup",
                 dataset_rows=30, hours=4, queries_per_hour=12, seed=22),
    CampaignSpec(kind="tqs", dialect="SimTiDB", dataset="tpch", dataset_rows=30,
                 hours=4, queries_per_hour=12, seed=23),
    CampaignSpec(kind="tqs", dialect="SimXDB", dataset_rows=30, hours=4,
                 queries_per_hour=12, seed=24),
]


@pytest.mark.parametrize("spec", CAMPAIGNS, ids=lambda spec: spec.dialect)
def test_shared_executions_match_fresh_ones_over_a_campaign(spec, monkeypatch):
    """Every report of a campaign's hinted executions equals a fresh,
    unprepared execution on a new engine, some executions were shared, and
    fewer ran than a key naming every join's matching routine would run."""
    original = Engine.execute_all_hints
    reports_checked = shared = executed = routine_keyed = 0

    def checking(engine, query, hint_sets):
        nonlocal reports_checked, shared, executed, routine_keyed
        reports = original(engine, query, hint_sets)
        results = []
        for hints, report in zip(hint_sets, reports):
            fresh = Engine(engine.database, engine.dialect).execute_with_report(
                query, hints)
            assert typed_record(report) == typed_record(fresh)
            shared += any(result is report.result for result in results)
            results.append(report.result)
        reports_checked += len(reports)
        executed += len({id(result) for result in results})
        routine_keyed += len(_routine_keys(engine, query, hint_sets))
        return reports

    monkeypatch.setattr(Engine, "execute_all_hints", checking)
    run_campaign(spec)
    assert reports_checked > 100
    assert shared > 0
    assert executed < routine_keyed


def _routine_keys(engine, query, hint_sets):
    """The distinct execution keys of *hint_sets* if each join's key also
    named its matching routine, or every hint set for a query that is not
    prepared."""
    if not isinstance(query, QuerySpec):
        return set(range(len(hint_sets)))
    prepared = engine.planner.prepare(query)
    keys = set()
    for hints in hint_sets:
        keys.add((prepared.execution_key(hints),
                  tuple(decision.algorithm.matching
                        for decision in prepared.decide(hints))))
    return keys


GOLDEN_CAMPAIGNS = {
    "tqs-mysql": CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=30,
                              hours=4, queries_per_hour=15, seed=3),
    "tqs-mariadb": CampaignSpec(kind="tqs", dialect="SimMariaDB",
                                dataset="kddcup", dataset_rows=30, hours=4,
                                queries_per_hour=15, seed=4),
    "tqs-tidb": CampaignSpec(kind="tqs", dialect="SimTiDB", dataset="tpch",
                             dataset_rows=30, hours=4, queries_per_hour=15,
                             seed=6),
    "diff-widened": CampaignSpec(kind="differential", backend="sqlite",
                                 dataset_rows=20, hours=8, queries_per_hour=24,
                                 seed=5, setop_probability=0.4,
                                 scalar_subquery_probability=0.3,
                                 cte_probability=0.25),
}
"""The campaigns of tests/test_executor_golden.py."""


@pytest.mark.parametrize("spec", GOLDEN_CAMPAIGNS.values(), ids=GOLDEN_CAMPAIGNS.keys())
def test_execution_keys_split_hint_sets_as_the_decided_triggers_do(spec, monkeypatch):
    """Over every join query a golden campaign executes, the keys that
    execution_key computes without deciding split the hint sets exactly as
    the behaviour keys of the triggers decide() plans: per join, the step's
    position and its hooks' key, plus the hint set for a query with a
    subquery.  A query the differential campaign runs under its default
    plan is split under the standard hint sets."""
    original = Engine.execute_with_report
    executed = []

    def recording(engine, query, hints=None):
        if isinstance(query, (QuerySpec, PreparedQuery)):
            executed.append((engine, query, hints))
        return original(engine, query, hints)

    monkeypatch.setattr(Engine, "execute_with_report", recording)
    # The recording sees this process's executions only, so a differential
    # campaign checks here; tests/test_check_process.py runs the golden
    # diff-widened campaign forked too and compares its outcomes.
    monkeypatch.setattr(differential, "checker_can_fork", lambda backend: False)
    run_campaign(spec)
    monkeypatch.undo()
    hint_sets = {}
    for engine, query, hints in executed:
        if isinstance(query, PreparedQuery):
            hint_sets.setdefault(query, []).append(hints)
        else:
            hint_sets[engine.planner.prepare(query)] = standard_hint_sets()
    split = shared = 0
    for prepared, hint_list in hint_sets.items():
        hooks = prepared.planner.hooks
        keys, decided = [], []
        for hints in hint_list:
            keys.append(prepared.execution_key(hints))
            joins = tuple((decision.step.position, hooks.behaviour_key(decision.trigger))
                          for decision in prepared.decide(hints))
            decided.append((joins, hints) if prepared._has_subquery else joins)
        for key, by_decision in zip(keys, decided):
            assert ([other == key for other in keys]
                    == [other == by_decision for other in decided])
        split += len(set(keys)) > 1
        shared += len(set(keys)) < len(hint_list)
    assert len(hint_sets) > 40
    assert split > 0 and shared > 0


def test_the_queries_exercise_reordering_and_faults(orders_db):
    """The fixture is not vacuous: the join order hint changes a plan's
    layout, and seeded faults fire somewhere."""
    query = QUERIES["join-inner"]
    engine = Engine(orders_db)
    reordered = engine.plan(query, HINT_SETS[-1]).explain()
    assert reordered != engine.plan(query, HINT_SETS[0]).explain()
    assert reordered.index("goods") < reordered.index("users")
    fired = {
        bug
        for dialect in ALL_DIALECTS
        for query in QUERIES.values()
        for report in Engine(orders_db, dialect).execute_all_hints(query, HINT_SETS)
        for bug in report.fired_bug_ids
    }
    assert len(fired) >= 5


def semi_join_with_in_subquery(where=True):
    """``orders o`` semi-joined to ``users u``, filtered by an IN subquery
    over ``goods g2 LEFT JOIN orders o2`` (or not, without *where*)."""
    subquery = QuerySpec(
        base=TableRef("goods", "g2"),
        joins=[JoinStep(TableRef("orders", "o2"), JoinType.LEFT_OUTER,
                        left_key=ColumnRef("g2", "goodsId"),
                        right_key=ColumnRef("o2", "goodsId"))],
        select=[SelectItem(column("g2", "goodsId"))],
    )
    return QuerySpec(
        base=TableRef("orders", "o"),
        joins=[JoinStep(TableRef("users", "u"), JoinType.SEMI,
                        left_key=ColumnRef("o", "userId"),
                        right_key=ColumnRef("u", "userId"))],
        select=[SelectItem(column("o", "orderId"))],
        where=InSubquery(column("o", "goodsId"), subquery) if where else None,
    )


def test_a_subquery_never_evaluated_under_one_hint_set_fires_nothing(orders_db):
    # Under merge_join hints SimTiDB empties the outer semi-join (bug 15),
    # so the WHERE subquery never runs.  Run, its left outer merge join
    # would fire bug 17; under the other hint sets it runs and fires nothing.
    query = semi_join_with_in_subquery()
    subquery = query.where.subquery
    engine = Engine(orders_db, SIM_TIDB)
    assert 17 in engine.execute_with_report(subquery, merge_join_hints()).fired_bug_ids
    hint_sets = [HINT_SETS[0], merge_join_hints(), HINT_SETS[0]]
    reports = engine.execute_all_hints(query, hint_sets)
    assert [len(report.result) for report in reports] == [3, 0, 3]
    assert [report.fired_bug_ids for report in reports] == [(), (15,), ()]


def test_hint_sets_whose_subquery_plans_differ_share_no_execution(orders_db):
    # Under SimMariaDB the outer semi-join executes alike under both hint
    # sets, so without the subquery they share one execution.  With the
    # outer-join cache off, the subquery's left outer join loses its
    # matched rows (bug 10): the IN list is empty, and so is the result.
    hint_sets = [default_hints(), join_cache_off_hints("outer_join_with_cache")]
    engine = Engine(orders_db, SIM_MARIADB)
    plain = engine.execute_all_hints(semi_join_with_in_subquery(where=False),
                                     hint_sets)
    assert plain[0].result is plain[1].result
    query = semi_join_with_in_subquery()
    reports = engine.execute_all_hints(query, hint_sets)
    assert [len(report.result) for report in reports] == [3, 0]
    assert [report.fired_bug_ids for report in reports] == [(), (10,)]
    for hints, report in zip(hint_sets, reports):
        fresh = Engine(orders_db, SIM_MARIADB).execute_with_report(query, hints)
        assert report_record(report) == report_record(fresh)


class HashOnlyPadding(ExecutionHooks):
    """Pads the unmatched rows of an inner join, but only under HASH: the
    one hash-table algorithm the seam tells apart from the others."""

    def flag(self, effect, trigger):
        return (effect == "inner_join_emit_null_padding"
                and trigger.algorithm is JoinAlgorithm.HASH)


def test_the_default_behaviour_key_keeps_apart_what_the_hooks_tell_apart(orders_db):
    # HASH and BNLH run the same matching routine; only the hooks' answers
    # differ, and the default key (the trigger itself) sees that.
    query = QUERIES["join-inner"]
    hint_sets = [hash_join_hints(), bnlh_join_hints()]
    reports = Engine(orders_db, hooks=HashOnlyPadding()).execute_all_hints(
        query, hint_sets)
    assert len(reports[0].result) > len(reports[1].result)
    for hints, report in zip(hint_sets, reports):
        fresh = Engine(orders_db, hooks=HashOnlyPadding()).execute_with_report(
            query, hints)
        assert report_record(report) == report_record(fresh)


def test_plan_description_read_after_execution_is_the_plans_explain(orders_db):
    query = QUERIES["subquery-join-condition"]
    engine = Engine(orders_db, ALL_DIALECTS[0])
    reports = engine.execute_all_hints(query, HINT_SETS)
    for hints, report in zip(HINT_SETS, reports):
        assert report.plan_description == engine.plan(query, hints).explain()


def test_compound_plan_text_joins_its_arms(orders_db):
    arms = [QUERIES["join-inner"], QUERIES["residual-condition"]]
    compound = CompoundQuerySpec(arms=arms, operators=[SetOperator.UNION])
    engine = Engine(orders_db)
    hints = HINT_SETS[1]
    report = engine.execute_all_hints(compound, [hints])[0]
    assert report.plan_description == "\n".join([
        engine.plan(arms[0], hints).explain(),
        SetOperator.UNION.value,
        engine.plan(arms[1], hints).explain(),
    ])


def test_a_prepared_query_reads_its_query_once(orders_db):
    """A prepared query keeps what its first plan read; the query itself,
    changed in place (as NoREC and PQS change ``where``), is prepared afresh
    by its next execution."""
    query = two_joins(JoinType.INNER)
    engine = Engine(orders_db)
    prepared = engine.planner.prepare(query)
    everything = set(engine.execute_with_report(prepared, HINT_SETS[0]).result.rows)
    query.where = Comparison("=", column("o", "orderId"), lit("0003"))
    assert set(engine.execute_with_report(prepared, HINT_SETS[1]).result.rows) == (
        everything)
    filtered = set(engine.execute_with_report(query, HINT_SETS[1]).result.rows)
    assert filtered and filtered < everything
    assert all(row[0] == "0003" for row in filtered)


def test_a_query_prepared_by_another_engine_is_refused(orders_db):
    query = QUERIES["join-inner"]
    prepared = Engine(orders_db).planner.prepare(query)
    with pytest.raises(PlanError):
        Engine(orders_db).execute_with_report(prepared, HINT_SETS[0])


#: ``engine.shared_executions`` over two telemetry-on TQS campaigns, recorded
#: when each shared execution incremented the counter on its own.
SHARED_EXECUTIONS = {("shopping", 9): 149, ("tpch", 4): 151}


@pytest.mark.parametrize("dataset, seed", sorted(SHARED_EXECUTIONS))
def test_shared_execution_counter_total_is_unchanged(dataset, seed):
    previous = obs.set_enabled(True)
    obs.reset_registry()
    try:
        run_campaign(CampaignSpec(kind="tqs", dialect="SimMySQL",
                                  dataset=dataset, dataset_rows=30, hours=2,
                                  queries_per_hour=8, seed=seed))
        snapshot = obs.get_registry().snapshot()
    finally:
        obs.reset_registry()
        obs.set_enabled(previous)
    assert (snapshot.counter_value("engine.shared_executions")
            == SHARED_EXECUTIONS[(dataset, seed)])
