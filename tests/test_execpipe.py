"""Tests for the overlapped execution pipeline (repro.core.execpipe).

The headline property is the determinism contract: for the same seed, a
differential campaign run serially, with ``batch_size=1``, and with
``batch_size=8`` must produce bit-identical per-hour series, verdicts and
:class:`BugLog` contents — threads may only move wall-clock time around.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro import obs
from repro.backends import SimulatedBackend, SQLiteBackend
from repro.backends.base import BackendAdapter, BackendExecution
from repro.core import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    PipelineConfig,
    QueryJob,
    build_differential_tester,
    run_campaign,
    run_campaign_loop,
)
from repro.core.differential import DifferentialConfig, DifferentialTester
from repro.core.execpipe import ExecutionPipeline
from repro.dsg import DSG, DSGConfig
from repro.errors import BackendError, CampaignError
from repro.obs import parse_key


def incident_keys(result):
    """The order-sensitive verdict fingerprint of a campaign's bug log."""
    assert result.bug_log is not None
    return [
        (incident.fired_bug_ids, incident.query_canonical_label,
         incident.query_sql)
        for incident in result.bug_log.incidents
    ]


# ------------------------------------------------------- determinism contract


class TestDeterminismContract:
    SPEC = CampaignSpec(kind="differential", hours=3, queries_per_hour=10, seed=5)

    def run_three_ways(self, backend):
        spec = replace(self.SPEC, backend=backend)
        serial = run_campaign(spec)
        batch_one = run_campaign(replace(spec, pipeline_batch_size=1))
        batch_eight = run_campaign(replace(spec, pipeline_batch_size=8))
        return serial, batch_one, batch_eight

    def test_simulated_faulty_backend_identical_verdicts(self):
        """serial == batch_size=1 == batch_size=8, including found bugs."""
        serial, batch_one, batch_eight = self.run_three_ways("sim:SimMySQL")
        assert serial.samples == batch_one.samples == batch_eight.samples
        assert (incident_keys(serial) == incident_keys(batch_one)
                == incident_keys(batch_eight))
        assert serial.final.bug_count > 0  # the contract is non-vacuous

    def test_sqlite_backend_identical_series_and_zero_false_positives(self):
        serial, batch_one, batch_eight = self.run_three_ways("sqlite")
        assert serial.samples == batch_one.samples == batch_eight.samples
        assert serial.final.bug_count == 0
        assert batch_eight.final.bug_count == 0
        assert serial.final.queries_executed > 0

    def test_partial_batch_flushes_at_hour_boundary(self):
        """A batch size larger than the hour's budget must still execute all
        generated queries each hour (the loop flushes before sampling)."""
        spec = CampaignSpec(kind="differential", hours=2, queries_per_hour=3,
                            seed=11)
        result = run_campaign(replace(spec, pipeline_batch_size=64))
        serial = run_campaign(spec)
        assert result.samples == serial.samples


# ---------------------------------------------------------- pipeline mechanics


class TestPipelineMechanics:
    def make_tester(self, batch_size, seed=4):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=seed))
        backend = SQLiteBackend()
        backend.deploy(dsg.database)
        return DifferentialTester(
            dsg, backend, config=DifferentialConfig(seed=seed),
            pipeline=PipelineConfig(batch_size=batch_size),
        )

    def test_batched_outcomes_preserve_generation_order(self):
        batched = self.make_tester(batch_size=4)
        serial = self.make_tester(batch_size=1)
        batched.run(12)
        serial.run(12)
        assert len(batched.outcomes) == len(serial.outcomes)
        assert ([o.canonical_label for o in batched.outcomes]
                == [o.canonical_label for o in serial.outcomes])
        assert ([o.matched for o in batched.outcomes]
                == [o.matched for o in serial.outcomes])
        batched.close()
        serial.close()

    def test_run_iteration_buffers_until_batch_fills(self):
        tester = self.make_tester(batch_size=50)
        try:
            outcome = tester.run_iteration()
            assert outcome is None
            assert tester.queries_generated == 1
            assert not tester.outcomes
            tester.flush()
            assert len(tester.outcomes) == 1
        finally:
            tester.close()

    def test_close_is_idempotent_and_closes_backend(self):
        tester = self.make_tester(batch_size=4)
        tester.run_iteration()
        tester.close()
        tester.close()  # second close must be a no-op, not an error
        with pytest.raises(BackendError):
            tester.backend.connection  # noqa: B018 - property raises when closed

    def test_invalid_pipeline_config_rejected(self):
        with pytest.raises(CampaignError):
            PipelineConfig(batch_size=0)
        with pytest.raises(CampaignError):
            PipelineConfig(batch_size=4, target_threads=0)


# ----------------------------------------------------- batched backend API


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


class TestExecuteMany:
    def build(self):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=7))
        backend = _ExplodingBackend()
        backend.deploy(dsg.database)
        queries = []
        while len(queries) < 4:
            try:
                query = dsg.generate_query()
            except Exception:
                continue
            if query.limit is None:
                queries.append(query)
        return backend, queries

    def test_default_execute_many_captures_per_query_errors(self):
        backend, queries = self.build()
        executions = backend.execute_many(queries)
        assert len(executions) == len(queries)
        assert [execution.ok for execution in executions] == [
            True, False, True, False
        ]
        assert all(isinstance(e.error, BackendError)
                   for e in executions if not e.ok)

    def run_exploding(self, config, pipeline=None):
        tester = build_differential_tester(_ExplodingBackend(), config,
                                           pipeline=pipeline)
        result = CampaignResult(tool="TQS-differential", dbms="exploding",
                                dataset=config.dataset)
        try:
            return run_campaign_loop(tester, result, config.hours,
                                     config.queries_per_hour)
        finally:
            tester.close()

    def test_pipeline_skips_errored_queries_like_serial_path(self):
        config = CampaignConfig(hours=2, queries_per_hour=6, seed=13)
        serial = self.run_exploding(config)
        batched = self.run_exploding(config, PipelineConfig(batch_size=6))
        assert serial.samples == batched.samples
        assert serial.final.queries_executed < serial.final.queries_generated


# --------------------------------------------------- capability-driven fan-out


class _RecordingThreadBackend(BackendAdapter):
    """Thread-safe fake that records which threads executed queries."""

    name = "threaded-fake"
    supports_concurrent_cursors = True

    def __init__(self):
        self.threads = set()
        self._lock = threading.Lock()

    def connect(self):
        pass

    def close(self):
        pass

    def execute(self, query):
        import time

        from repro.engine.resultset import ResultSet

        with self._lock:
            self.threads.add(threading.current_thread().name)
        time.sleep(0.02)  # long enough that a lone thread cannot drain 8 jobs
        return BackendExecution(result=ResultSet(["a"], [(1,)]))


class _OracleStub:
    """Just enough oracle surface for ExecutionPipeline.run_batch."""

    def __init__(self, backend, reference):
        self.backend = backend
        self.reference = reference
        self.judged = []

    def precheck(self, query, label):
        return None

    def execute_reference(self, query, label=""):
        return self.reference.execute(query)

    def judge(self, query, label, execution, reference_result):
        self.judged.append((label, execution.ok))
        return (label, execution.ok)


class _ReferenceStub:
    def execute(self, query):
        from repro.engine.resultset import ResultSet

        return ResultSet(["a"], [(1,)])


class TestCapabilityClamping:
    def test_concurrent_cursor_backend_may_fan_out(self):
        backend = _RecordingThreadBackend()
        oracle = _OracleStub(backend, _ReferenceStub())
        pipeline = ExecutionPipeline(
            oracle, PipelineConfig(batch_size=8, target_threads=4)
        )
        assert pipeline.target_threads == 4
        jobs = [QueryJob(query=None, label=f"L{i}") for i in range(8)]
        outcomes = pipeline.run_batch(jobs)
        assert [label for label, _ in outcomes] == [f"L{i}" for i in range(8)]
        # Genuine fan-out: a declared-concurrent backend must see more than
        # one executing thread (every pool worker does real work — no pool
        # slot is burned on a blocked wrapper task).
        assert len(backend.threads) > 1
        pipeline.close()

    def test_serial_backend_is_clamped_to_one_thread(self):
        backend = _RecordingThreadBackend()
        backend.supports_concurrent_cursors = False
        oracle = _OracleStub(backend, _ReferenceStub())
        pipeline = ExecutionPipeline(
            oracle, PipelineConfig(batch_size=8, target_threads=4)
        )
        assert pipeline.target_threads == 1
        pipeline.run_batch([QueryJob(query=None, label="L") for _ in range(6)])
        assert len(backend.threads) == 1
        pipeline.close()


# ------------------------------------------------------------- phase spans

#: Seconds each side of the differential comparison sleeps per query.
SIDE_SLEEP = 0.01


def _sleep_before(instance, method):
    """Make *instance*'s *method* sleep SIDE_SLEEP before it runs."""
    plain = getattr(instance, method)

    def sleeping(*args, **kwargs):
        time.sleep(SIDE_SLEEP)
        return plain(*args, **kwargs)

    setattr(instance, method, sleeping)


class TestOverlappedPhaseSpans:
    def test_phase_spans_partition_a_pipelined_workers_wall_clock(self):
        """Overlapped target and reference time is charged once.

        Both sides sleep inside their spans per query, so at batch size 4
        their spans add up to about twice the time the batches take; summed
        as phases they would report more seconds than the worker ran.
        """
        config = CampaignConfig(dataset_rows=20, hours=2, queries_per_hour=8,
                                seed=3)
        tester = build_differential_tester(
            SimulatedBackend(), config, pipeline=PipelineConfig(batch_size=4))
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
        assert result.final.queries_executed > 0
        phases = snapshot.phase_seconds()
        assert "execute.overlap" in phases
        assert "execute.target" not in phases
        assert "execute.reference" not in phases
        assert obs.phase_total_seconds(snapshot) <= wall
        # The helper threads' spans are still recorded, outside the phases.
        overlapped = {
            parse_key(key)[1]["phase"]: state.sum
            for key, state in snapshot.histograms.items()
            if parse_key(key)[0] == obs.OVERLAPPED_PHASE_HISTOGRAM
        }
        assert overlapped["execute.target"] >= SIDE_SLEEP * 4
        assert overlapped["execute.reference"] >= SIDE_SLEEP * 4
