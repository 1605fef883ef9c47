"""The one differential path: target, then reference, then judge, serially.

A differential iteration generates a query, runs it on the backend under test,
runs it on the bug-free reference executor and compares the two results.
These tests pin that order, the verdicts it files, how rejected queries are
skipped, the telemetry phases it records, its per-seed determinism, and that
the retired result cache and pipelined executor stay gone from the API.
"""

from __future__ import annotations

import importlib
import threading
import time

import pytest

from repro import obs
from repro.backends import SimulatedBackend, SQLiteBackend
from repro.backends.base import BackendAdapter, BackendExecution
from repro.core import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    build_campaign_tester,
    build_differential_tester,
    build_shard_specs,
    run_campaign,
    run_campaign_loop,
)
from repro.core.differential import (
    DifferentialConfig,
    DifferentialOracle,
    DifferentialOutcome,
    DifferentialTester,
)
from repro.dsg import DSG, DSGConfig
from repro.engine import ResultSet, reference_engine
from repro.errors import BackendError, RenderError
from repro.expr.ast import ColumnRef
from repro.plan.logical import QuerySpec, SelectItem, TableRef
from repro.plan.sqlrender import SQLRenderer


def fingerprint(result):
    """The order-sensitive verdict fingerprint of a campaign."""
    assert result.bug_log is not None
    return (
        tuple(result.samples),
        tuple((incident.fired_bug_ids, incident.query_canonical_label,
               incident.query_sql)
              for incident in result.bug_log.incidents),
    )


def deployed(seed=4, rows=60, backend=None):
    """A DSG database deployed into *backend* (a simulated engine by default)."""
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=rows, seed=seed))
    backend = backend if backend is not None else SimulatedBackend()
    backend.deploy(dsg.database)
    return dsg, backend


def single_table_query(dsg, limit=None):
    table = dsg.database.table_names[0]
    column = dsg.ndb.data_columns(table)[0]
    return QuerySpec(base=TableRef(table, table),
                     select=[SelectItem(ColumnRef(table, column))],
                     limit=limit)


class _RecordingEngine:
    """Wraps the reference engine and logs each query it executes."""

    def __init__(self, engine, calls):
        self.engine = engine
        self.calls = calls

    def execute(self, query):
        self.calls.append("reference")
        return self.engine.execute(query)


class _RecordingBackend(SimulatedBackend):
    """A simulated backend that logs each query it executes."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def execute(self, query):
        self.calls.append("target")
        return super().execute(query)


# ------------------------------------------------------------ the call order


class TestOneSerialPath:
    def test_check_runs_target_then_reference_once_each(self):
        calls = []
        dsg, backend = deployed(backend=_RecordingBackend(calls))
        oracle = DifferentialOracle(
            _RecordingEngine(reference_engine(dsg.database), calls), backend)
        outcome = oracle.check(single_table_query(dsg), "L")
        assert calls == ["target", "reference"]
        assert outcome.matched and not outcome.skipped
        assert oracle.comparisons == 1 and oracle.skipped == 0

    def test_limit_query_runs_neither_side(self):
        calls = []
        dsg, backend = deployed(backend=_RecordingBackend(calls))
        oracle = DifferentialOracle(
            _RecordingEngine(reference_engine(dsg.database), calls), backend)
        outcome = oracle.check(single_table_query(dsg, limit=2), "L")
        assert outcome.skipped and outcome.skip_reason
        assert calls == []

    def test_run_iteration_returns_each_outcome_as_it_is_judged(self):
        dsg, backend = deployed()
        tester = DifferentialTester(dsg, backend,
                                    config=DifferentialConfig(seed=4))
        try:
            for count in range(1, 6):
                outcome = tester.run_iteration()
                assert isinstance(outcome, DifferentialOutcome)
                assert tester.outcomes[-1] is outcome
                assert len(tester.outcomes) == tester.queries_generated == count
        finally:
            tester.close()

    def test_outcomes_follow_generation_order_per_seed(self):
        runs = []
        for _ in range(2):
            dsg, backend = deployed(backend=SQLiteBackend())
            tester = DifferentialTester(dsg, backend,
                                        config=DifferentialConfig(seed=4))
            try:
                tester.run(12)
            finally:
                tester.close()
            runs.append([(o.canonical_label, o.matched, o.skipped, o.sql)
                         for o in tester.outcomes])
        assert runs[0] == runs[1]
        assert len(runs[0]) == 12

    def test_each_iteration_executes_on_the_thread_that_called_it(self):
        threads = []

        class ThreadRecordingBackend(SimulatedBackend):
            def execute(self, query):
                threads.append(threading.current_thread())
                return super().execute(query)

        dsg, backend = deployed(backend=ThreadRecordingBackend())
        tester = DifferentialTester(dsg, backend,
                                    config=DifferentialConfig(seed=4))
        try:
            tester.run(6)
        finally:
            tester.close()
        assert threads
        assert set(threads) == {threading.current_thread()}


# ------------------------------------------------------------------ verdicts


class TestJudge:
    def make_oracle(self):
        dsg, backend = deployed()
        return dsg, DifferentialOracle(reference_engine(dsg.database), backend)

    def test_matching_result_files_nothing(self):
        dsg, oracle = self.make_oracle()
        query = single_table_query(dsg)
        reference = ResultSet(["a"], [(1,), (2,)])
        outcome = oracle.judge(query, "L", BackendExecution(
            result=ResultSet(["a"], [(2,), (1,)]), sql="SELECT 1"), reference)
        assert outcome.matched and outcome.incident is None
        assert oracle.comparisons == 1
        assert oracle.bug_log.incidents == []

    def test_mismatch_is_filed_with_its_provenance(self):
        dsg, oracle = self.make_oracle()
        query = single_table_query(dsg)
        outcome = oracle.judge(
            query, "L7",
            BackendExecution(result=ResultSet(["a"], [(1,)]),
                             sql="SELECT a FROM t", fired_bug_ids=(3,)),
            ResultSet(["a"], [(1,), (2,)]))
        assert outcome.detected and outcome.incident is not None
        assert oracle.bug_log.incidents == [outcome.incident]
        incident = outcome.incident
        assert incident.dbms == oracle.backend.name
        assert incident.detection_mode == "backend_differential"
        assert incident.hint_name == "default"
        assert incident.query_canonical_label == "L7"
        assert incident.query_sql == "SELECT a FROM t"
        assert incident.fired_bug_ids == (3,)
        assert (incident.expected_rows, incident.observed_rows) == (2, 1)
        assert (outcome.reference_rows, outcome.observed_rows) == (2, 1)

    def test_mismatch_without_backend_sql_files_the_rendered_query(self):
        dsg, oracle = self.make_oracle()
        query = single_table_query(dsg)
        outcome = oracle.judge(query, "L",
                               BackendExecution(result=ResultSet(["a"], [])),
                               ResultSet(["a"], [(1,)]))
        assert outcome.incident.query_sql == SQLRenderer().query(query)


# ---------------------------------------------------------- rejected queries


class _RejectingBackend(SimulatedBackend):
    """Raises *error* from every execute."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def execute(self, query):
        raise self.error


class _ExplodingBackend(SimulatedBackend):
    """Fails on every second execute, with a BackendError."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def execute(self, query):
        self.calls += 1
        if self.calls % 2 == 0:
            raise BackendError("boom")
        return super().execute(query)


def run_loop(backend, config):
    tester = build_differential_tester(backend, config)
    result = CampaignResult(tool="TQS-differential", dbms=backend.name,
                            dataset=config.dataset)
    try:
        return run_campaign_loop(tester, result, config.hours,
                                 config.queries_per_hour)
    finally:
        tester.close()


class TestRejectedQueries:
    @pytest.mark.parametrize("error", [BackendError("engine fell over"),
                                       RenderError("no such construct")],
                             ids=lambda error: type(error).__name__)
    def test_rejected_query_is_skipped_before_the_reference_runs(self, error):
        calls = []
        dsg, backend = deployed(backend=_RejectingBackend(error))
        oracle = DifferentialOracle(
            _RecordingEngine(reference_engine(dsg.database), calls), backend)
        previous = obs.set_enabled(True)
        obs.reset_registry()
        try:
            outcome = oracle.check(single_table_query(dsg), "L")
            errors = obs.get_registry().snapshot().counters_by_name(
                "execute.errors")
        finally:
            obs.reset_registry()
            obs.set_enabled(previous)
        assert outcome.skipped and outcome.skip_reason == str(error)
        assert calls == []
        assert oracle.skipped == 1 and oracle.comparisons == 0
        assert oracle.bug_log.incidents == []
        kind = type(error).__name__
        assert errors == {
            f"execute.errors{{backend={backend.name},kind={kind}}}": 1}

    def test_errored_queries_are_skipped_and_the_campaign_goes_on(self):
        config = CampaignConfig(hours=2, queries_per_hour=6, seed=13)
        result = run_loop(_ExplodingBackend(), config)
        assert len(result.samples) == 2
        assert 0 < result.final.queries_executed < result.final.queries_generated

    def test_errored_campaign_is_deterministic_per_seed(self):
        config = CampaignConfig(hours=2, queries_per_hour=6, seed=13)
        first = run_loop(_ExplodingBackend(), config)
        second = run_loop(_ExplodingBackend(), config)
        assert first.samples == second.samples


# --------------------------------------------------------------- determinism


@pytest.mark.parametrize("backend", [
    "sim:SimMySQL", "sim:SimMariaDB", "sim:SimTiDB", "sim:SimXDB", "sqlite",
])
def test_differential_campaign_is_identical_per_seed(backend):
    spec = CampaignSpec(kind="differential", backend=backend, dataset_rows=60,
                        hours=2, queries_per_hour=6, seed=5)
    first = run_campaign(spec)
    assert fingerprint(first) == fingerprint(run_campaign(spec))
    assert first.final.queries_executed > 0
    if backend == "sqlite":
        assert first.final.bug_count == 0


# ----------------------------------------------------------------- telemetry

#: Seconds each side of the differential comparison sleeps per query.
SIDE_SLEEP = 0.005


def _sleep_before(instance, method):
    """Make *instance*'s *method* sleep SIDE_SLEEP before it runs."""
    plain = getattr(instance, method)

    def sleeping(*args, **kwargs):
        time.sleep(SIDE_SLEEP)
        return plain(*args, **kwargs)

    setattr(instance, method, sleeping)


class TestPhaseSpans:
    def run_traced(self):
        config = CampaignConfig(dataset_rows=20, hours=2, queries_per_hour=6,
                                seed=3)
        tester = build_differential_tester(SimulatedBackend(), config)
        # The target's span times its engine; the reference's, its execute.
        _sleep_before(tester.oracle.backend.engine, "execute_with_report")
        _sleep_before(tester.oracle.reference, "execute")
        previous = obs.set_enabled(True)
        obs.reset_registry()
        try:
            result = CampaignResult(tool="t", dbms="d", dataset=config.dataset)
            start = time.perf_counter()
            run_campaign_loop(tester, result, config.hours,
                              config.queries_per_hour)
            wall = time.perf_counter() - start
            snapshot = obs.get_registry().snapshot()
        finally:
            tester.close()
            obs.reset_registry()
            obs.set_enabled(previous)
        return result, tester, snapshot, wall

    def test_target_and_reference_phases_partition_the_wall_clock(self):
        result, tester, snapshot, wall = self.run_traced()
        executed = result.final.queries_executed
        assert executed > 0
        phases = snapshot.phase_seconds()
        target_seconds, target_spans = phases["execute.target"]
        reference_seconds, reference_spans = phases["execute.reference"]
        assert target_spans == reference_spans == executed
        assert target_seconds >= SIDE_SLEEP * executed
        assert reference_seconds >= SIDE_SLEEP * executed
        assert phases["judge"][1] == executed
        assert obs.phase_total_seconds(snapshot) <= wall

    def test_only_the_serial_phases_are_recorded(self):
        _, _, snapshot, _ = self.run_traced()
        assert set(snapshot.phase_seconds()) <= {
            "setup", "generate", "render", "execute.target",
            "execute.reference", "judge", "settle", "sync"}
        names = {obs.parse_key(key)[0] for key in snapshot.histograms}
        assert "phase.overlapped.seconds" not in names
        order = [name for name, _, _ in obs.phase_breakdown(snapshot)]
        assert order.index("execute.target") < order.index("execute.reference")


# ------------------------------------------------------------ SQLite threads


def test_sqlite_connection_keeps_its_thread_guard():
    """sqlite3 refuses a connection used off the thread that opened it."""
    dsg, backend = deployed(backend=SQLiteBackend())
    query = single_table_query(dsg)
    failures = []

    def execute_elsewhere():
        try:
            backend.execute(query)
        except BackendError as error:
            failures.append(error)

    try:
        assert backend.execute(query).result.rows
        worker = threading.Thread(target=execute_elsewhere)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        backend.close()
    assert len(failures) == 1
    assert "thread" in str(failures[0])


# --------------------------------------------------------- retired interface


@pytest.mark.parametrize("module", ["repro.core.qcache", "repro.core.execpipe"])
def test_retired_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("name", [
    "QueryCache", "PipelineConfig", "ExecutionPipeline", "QueryJob",
])
def test_retired_name_is_not_exported(name):
    import repro
    import repro.core

    assert not hasattr(repro, name)
    assert not hasattr(repro.core, name)


@pytest.mark.parametrize("build, retired", [
    (CampaignConfig, {"use_query_cache": True}),
    (CampaignSpec, {"use_query_cache": True}),
    (CampaignSpec, {"pipeline_batch_size": 8}),
], ids=["config-use_query_cache", "spec-use_query_cache",
        "spec-pipeline_batch_size"])
def test_retired_campaign_field_is_refused(build, retired):
    with pytest.raises(TypeError):
        build(**retired)


def test_retired_batch_size_parameters_are_refused():
    config = CampaignConfig(dataset_rows=20, hours=1, queries_per_hour=1)
    with pytest.raises(TypeError):
        build_shard_specs("differential", config, 1, batch_size=4)
    with pytest.raises(TypeError):
        build_campaign_tester("differential", config, batch_size=4)


@pytest.mark.parametrize("name", ["execute_many", "supports_concurrent_cursors"])
def test_backend_adapter_has_no_batch_surface(name):
    assert not hasattr(BackendAdapter, name)
    assert not hasattr(SQLiteBackend(), name)


def test_tester_has_no_pending_batch():
    dsg, backend = deployed()
    tester = DifferentialTester(dsg, backend)
    try:
        for name in ("flush", "pipeline", "_pending"):
            assert not hasattr(tester, name)
    finally:
        tester.close()
