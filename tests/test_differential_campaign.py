"""Differential oracle and campaign tests (acceptance criteria of the backends PR)."""

from __future__ import annotations

import pytest

from repro import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    SIM_MYSQL,
    SQLiteBackend,
    SimulatedBackend,
    run_campaign,
)
from repro.baselines.base import BaselineTester
from repro.core import (
    build_baseline_tester,
    build_differential_tester,
    run_campaign_loop,
)
from repro.core.differential import (
    DifferentialConfig,
    DifferentialOracle,
    DifferentialTester,
)
from repro.dsg import DSG, DSGConfig
from repro.engine import Relation, ResultSet, agree, reference_engine
from repro.errors import BackendError, GenerationError
from repro.plan.logical import QuerySpec, SelectItem, TableRef
from repro.expr.ast import ColumnRef
from repro.sqlvalue.values import NULL


# ------------------------------------------------------------ result matching


def tolerant_set_equal(expected: ResultSet, observed: ResultSet) -> bool:
    """The differential oracle's relation for a DISTINCT projection."""
    return agree(expected, observed, Relation.SET_EQUAL, tolerant=True)


def test_tolerant_set_equal_ignores_order_and_duplicates():
    left = ResultSet(["a", "b"], [(1, "x"), (2, "y"), (2, "y")])
    right = ResultSet(["a", "b"], [(2, "y"), (1, "x")])
    assert tolerant_set_equal(left, right)


def test_tolerant_set_equal_canonicalizes_numerics():
    left = ResultSet(["a"], [(1,), (2.0,)])
    right = ResultSet(["a"], [(1.0,), (2,)])
    assert tolerant_set_equal(left, right)


def test_tolerant_set_equal_float_tolerance():
    left = ResultSet(["a", "b"], [(0.1 + 0.2, "x")])
    right = ResultSet(["a", "b"], [(0.3, "x")])
    assert tolerant_set_equal(left, right)
    assert not tolerant_set_equal(
        ResultSet(["a"], [(0.3,)]), ResultSet(["a"], [(0.4,)])
    )


def test_tolerant_set_equal_null_only_matches_null():
    assert not tolerant_set_equal(
        ResultSet(["a"], [(NULL,)]), ResultSet(["a"], [(0,)])
    )
    assert tolerant_set_equal(
        ResultSet(["a"], [(NULL,)]), ResultSet(["a"], [(NULL,)])
    )


def test_tolerant_set_equal_detects_genuine_mismatch():
    assert not tolerant_set_equal(
        ResultSet(["a"], [(1,), (2,)]), ResultSet(["a"], [(1,)])
    )


def test_normalized_is_cached_and_rows_immutable():
    """normalized() runs once per result set (every agree() call on the
    differential hot path reads it); rows are frozen so the cache cannot go
    stale."""
    result = ResultSet(["a"], [(1,), (2,)])
    first = result.normalized()
    assert result.normalized() is first
    assert isinstance(result.rows, tuple)
    with pytest.raises((TypeError, AttributeError)):
        result.rows.append((3,))  # type: ignore[attr-defined]
    assert agree(result, ResultSet(["a"], [(2,), (1,)]), Relation.SET_EQUAL)


# ----------------------------------------------------------------- the oracle


def test_oracle_skips_limit_queries():
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=2))
    backend = SimulatedBackend()
    backend.deploy(dsg.database)
    oracle = DifferentialOracle(reference_engine(dsg.database), backend)
    table = dsg.database.table_names[0]
    first_column = dsg.ndb.data_columns(table)[0]
    query = QuerySpec(
        base=TableRef(table, table),
        select=[SelectItem(ColumnRef(table, first_column))],
        limit=3,
    )
    outcome = oracle.check(query)
    assert outcome.skipped and outcome.matched
    assert oracle.comparisons == 0 and oracle.skipped == 1


# ------------------------------------------------- acceptance: no false alarms


def test_sqlite_differential_campaign_end_to_end():
    """A real differential campaign runs on stdlib SQLite with zero false positives.

    The backend is a correct engine and the reference executor is bug-free, so
    every mismatch would be a false positive of the rendering/normalization
    pipeline.
    """
    result = run_campaign(CampaignSpec(kind="differential", hours=2))
    assert len(result.samples) == 2
    final = result.final
    assert final.queries_executed > 0
    assert final.queries_generated >= final.queries_executed
    assert final.isomorphic_sets > 0
    assert final.bug_count == 0, (
        f"false positives against bug-free SQLite: "
        f"{[i.query_sql for i in result.bug_log.incidents[:3]]}"
    )
    assert result.dbms == "SQLite"


def test_sqlite_differential_campaign_other_dataset_seed():
    result = run_campaign(CampaignSpec(kind="differential", dataset="tpch",
                                       hours=2, queries_per_hour=8, seed=29))
    assert result.final.queries_executed > 0
    assert result.final.bug_count == 0


# ------------------------------------------ sensitivity: seeded bugs are found


def test_differential_campaign_detects_seeded_faults():
    """Against a faulty simulated engine the same oracle must report bugs."""
    result = run_campaign(CampaignSpec(kind="differential",
                                       backend="sim:SimMySQL", hours=4,
                                       queries_per_hour=12, seed=5))
    assert result.final.bug_count > 0
    assert result.final.bug_type_count > 0
    incident = result.bug_log.incidents[0]
    assert incident.detection_mode == "backend_differential"
    assert incident.fired_bug_ids  # simulated backends announce root causes


def test_differential_tester_counters():
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=4))
    backend = SQLiteBackend()
    backend.deploy(dsg.database)
    tester = DifferentialTester(dsg, backend,
                                config=DifferentialConfig(seed=4))
    tester.run(10)
    assert tester.queries_generated > 0
    assert tester.queries_executed == tester.oracle.comparisons
    assert tester.explored_isomorphic_sets > 0
    assert tester.bug_log.bug_count == 0
    backend.close()


def test_close_is_idempotent_and_closes_backend():
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=4))
    backend = SQLiteBackend()
    backend.deploy(dsg.database)
    tester = DifferentialTester(dsg, backend,
                                config=DifferentialConfig(seed=4))
    tester.run_iteration()
    tester.close()
    tester.close()  # second close must be a no-op, not an error
    with pytest.raises(BackendError):
        tester.backend.connection  # noqa: B018 - property raises when closed


def test_backend_errors_are_skipped_not_fatal():
    """A runtime rejection by the backend must not abort a campaign."""
    class CrashyBackend(SimulatedBackend):
        def execute(self, query):
            raise BackendError("engine fell over")

    config = CampaignConfig(hours=2, queries_per_hour=3)
    tester = build_differential_tester(CrashyBackend(), config)
    try:
        result = run_campaign_loop(
            tester, CampaignResult(tool="TQS-differential", dbms="crashy",
                                   dataset=config.dataset),
            config.hours, config.queries_per_hour,
        )
    finally:
        tester.close()
    assert len(result.samples) == 2
    assert result.final.queries_executed == 0
    assert result.final.bug_count == 0


# ------------------------------------------------ satellite: baseline campaign


class _AlwaysFailingBaseline(BaselineTester):
    name = "always-failing"

    def run_iteration(self) -> None:
        raise GenerationError("this baseline can never generate a query")


def test_baseline_campaign_survives_generation_errors():
    """One failed generation must not abort the whole baseline campaign."""
    config = CampaignConfig(hours=3, queries_per_hour=2, dataset_rows=80)
    tester = build_baseline_tester(_AlwaysFailingBaseline(), SIM_MYSQL, config)
    result = run_campaign_loop(
        tester, CampaignResult(tool=tester.name, dbms=SIM_MYSQL.name,
                               dataset=config.dataset),
        config.hours, config.queries_per_hour,
    )
    assert len(result.samples) == 3
    assert result.final.queries_generated == 0
    assert result.final.bug_count == 0
