"""A serial differential campaign that checks in a forked checker process.

The loop's process generates, labels and registers queries; the checker runs
``DifferentialOracle.check`` on each, and an hour is finished when the checker
answers the marker sent at its end.  These tests pin that the split changes
nothing a campaign reports, with or without a barrier at each hour's end, that
the loop waits for the checker only when it must, that no checker outlives its
tester, that failures surface as typed errors, and that every exclusion of the
fork rule keeps checks in-process.

Tests that need a checker skip on a host that allows this process a single
CPU; there, ``test_the_host_affinity_picks_the_path`` asserts that the loop
checks in-process.  They fail, naming the threads, if another thread is alive
when they start: the fork rule would then quietly check in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import replace
from unittest import mock

import pytest

from repro import obs
from repro.backends import SimulatedBackend, SQLiteBackend, backend_from_name
from repro.core import differential, parallel
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    build_differential_tester,
    run_campaign_loop,
)
from repro.engine.dialects import SIM_MYSQL
from repro.engine.resultset import ResultSet
from repro.errors import BackendError, CampaignError, GenerationError
from test_executor_golden import CAMPAIGNS

CLASSIC = CampaignConfig(dataset_rows=20, hours=4, queries_per_hour=12, seed=11)
WIDENED = replace(CLASSIC, dataset_rows=10, seed=12, setop_probability=0.4,
                  scalar_subquery_probability=0.3, cte_probability=0.25)
#: More queries per hour than the checker's window, so the loop also
#: waits for answers mid-hour.
LONG_HOURS = replace(CLASSIC, hours=2,
                     queries_per_hour=3 * differential.CHECK_WINDOW // 2)
#: The differential campaign whose executions the golden verdict and plan
#: digests pin (tests/test_executor_golden.py, tests/test_plan_constants.py);
#: those record executions in this process, so they pin the in-process path.
GOLDEN_WIDENED = CAMPAIGNS["diff-widened"].campaign_config()


def _two_cpus() -> bool:
    return len(os.sched_getaffinity(0)) >= 2


@pytest.fixture
def alone():
    """Fail a test that would fork a checker while another thread is alive."""
    assert threading.active_count() == 1, (
        f"an earlier test left threads alive: {threading.enumerate()}")


def needs_two_cpus(test):
    """Skip *test* on one CPU; fail it if another thread is alive."""
    test = pytest.mark.usefixtures("alone")(test)
    return pytest.mark.skipif(
        not _two_cpus(), reason="a checker needs two CPUs; see "
        "test_the_host_affinity_picks_the_path")(test)


def _checkers():
    return [child for child in multiprocessing.active_children()
            if child.name == "differential-checker"]


class FailingBackend(SimulatedBackend):
    """Clean simulated engine whose every third execution is refused."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def execute(self, query):
        self.calls += 1
        if self.calls % 3 == 0:
            raise BackendError(f"refused execution {self.calls}")
        return super().execute(query)


class UnforkableBackend(SimulatedBackend):
    survives_fork = False


class SlowCheckerBackend(SimulatedBackend):
    """Clean simulated engine that takes 10 ms longer per execution in any
    process but the one that built it: the loop outruns its checker several
    times over, and the checks the loop takes back stay fast."""

    def __init__(self) -> None:
        super().__init__()
        self.home = os.getpid()

    def execute(self, query):
        if os.getpid() != self.home:
            time.sleep(0.01)
        return super().execute(query)


def _socket_buffer_bytes():
    first, second = socket.socketpair()
    with first, second:
        return first.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


#: Characters of SQL each MismatchingBackend execution carries: more than a
#: socket's send buffer, so the checker blocks writing each answer until the
#: loop reads it.
LONG_SQL = _socket_buffer_bytes()


class MismatchingBackend(SimulatedBackend):
    """Slow clean simulated engine that adds a row to every result and pads
    its SQL, so every answer the checker writes carries an incident larger
    than the pipe holds and the loop runs ahead of the checker."""

    def execute(self, query):
        time.sleep(0.002)
        execution = super().execute(query)
        result = execution.result
        extra = ("extra",) * len(result.columns)
        return replace(execution, sql="/* " + "x" * LONG_SQL + " */",
                       result=ResultSet(result.columns, result.rows + (extra,)))


def _with_limits(tester):
    """Give every other generated statement a LIMIT, which the oracle skips."""
    generate = tester.dsg.generate_statement
    count = [0]

    def limited(**kwargs):
        query = generate(**kwargs)
        count[0] += 1
        if count[0] % 2 == 0:
            query.limit = 3
        return query

    tester.dsg.generate_statement = limited


def _with_rejections(tester):
    """Make five generations in a row fail every twentieth call, so some
    iterations are rejected."""
    generate = tester.dsg.generate_statement
    count = [0]

    def flaky(**kwargs):
        count[0] += 1
        if count[0] % 20 < 5:
            raise GenerationError(f"dead end {count[0]}")
        return generate(**kwargs)

    tester.dsg.generate_statement = flaky


def in_process():
    """Refuse every checker fork for the duration of a ``with`` block."""
    return mock.patch.object(differential, "checker_can_fork",
                             lambda backend: False)


def run(config, backend="sqlite", fork=True, prepare=None, hook=True):
    """One campaign: (result, outcomes, on_hour records, checkers forked).

    Without *hook* the loop gets no ``on_hour`` hook, and the records are
    empty.
    """
    adapter = backend() if callable(backend) else backend_from_name(backend)
    tester = build_differential_tester(adapter, config)
    if prepare is not None:
        prepare(tester)
    result = CampaignResult(tool="t", dbms="d", dataset=config.dataset)
    records = []
    on_hour = records.append if hook else None
    try:
        if fork:
            run_campaign_loop(tester, result, config.hours,
                              config.queries_per_hour, on_hour=on_hour)
        else:
            with in_process():
                run_campaign_loop(tester, result, config.hours,
                                  config.queries_per_hour, on_hour=on_hour)
    finally:
        tester.close()
    return result, tester.outcomes, records, tester.checker_forks


# ------------------------------------------------------------ equal results


def _files_bugs(result, outcomes):
    return result.final.bug_count > 0


def _skips_refusals(result, outcomes):
    return any(o.skip_reason.startswith("refused") for o in outcomes)


def _skips_limits(result, outcomes):
    return any(o.skip_reason.startswith("LIMIT") for o in outcomes)


def _rejects(result, outcomes):
    return result.generations_rejected > 0


def _generates(result, outcomes):
    return result.final.queries_executed > 0


@needs_two_cpus
@pytest.mark.parametrize("config, backend, prepare, exercised", [
    (CLASSIC, "sqlite", None, _generates),
    (WIDENED, "sqlite", None, _generates),
    (replace(CLASSIC, dataset_rows=30), "sim:SimMySQL", None, _files_bugs),
    (CLASSIC, FailingBackend, None, _skips_refusals),
    (CLASSIC, "sqlite", _with_limits, _skips_limits),
    (CLASSIC, "sqlite", _with_rejections, _rejects),
    (LONG_HOURS, "sim:SimMySQL", None, _files_bugs),
    (GOLDEN_WIDENED, "sqlite", None, _generates),
], ids=["sqlite", "widened", "sim-mysql", "backend-error", "limit-skips",
        "generation-error", "long-hours", "golden-widened"])
def test_forked_checks_equal_in_process_ones(config, backend, prepare,
                                             exercised):
    serial, serial_outcomes, serial_records, serial_forks = run(
        config, backend, fork=False, prepare=prepare)
    forked, forked_outcomes, forked_records, forks = run(
        config, backend, prepare=prepare)
    assert (serial_forks, forks) == (0, 1)
    assert exercised(serial, serial_outcomes)
    assert forked.samples == serial.samples
    assert forked_outcomes == serial_outcomes
    assert forked.bug_log.incidents == serial.bug_log.incidents
    assert forked_records == serial_records


def traced(config, backend="sqlite", fork=True, prepare=None, hook=True):
    """:func:`run` with telemetry on: its tuple plus the live registry's
    snapshot and the campaign's wall-clock seconds."""
    previous = obs.set_enabled(True)
    obs.reset_registry()
    try:
        start = time.perf_counter()
        outcome = run(config, backend, fork=fork, prepare=prepare, hook=hook)
        wall = time.perf_counter() - start
        return outcome + (obs.get_registry().snapshot(), wall)
    finally:
        obs.reset_registry()
        obs.set_enabled(previous)


def _campaign_counters(snapshot):
    return {key: value for key, value in snapshot.counters.items()
            if key.startswith("campaign.")}


@needs_two_cpus
@pytest.mark.parametrize("config, backend, prepare", [
    (CLASSIC, "sqlite", None),
    (WIDENED, "sqlite", None),
    (LONG_HOURS, "sim:SimMySQL", None),
    (GOLDEN_WIDENED, "sqlite", None),
    (CLASSIC, "sqlite", _with_rejections),
    (CLASSIC, SlowCheckerBackend, None),
], ids=["classic", "widened", "long-hours", "golden-widened",
        "generation-error", "slow-checker"])
def test_hours_finished_without_a_barrier_equal_in_process_ones(
        config, backend, prepare):
    """Without a hook the loop does not wait at an hour's end; each hour is
    finished when the checker answers its marker."""
    serial, serial_outcomes, _, serial_forks, serial_snapshot, _ = traced(
        config, backend, fork=False, prepare=prepare, hook=False)
    forked, outcomes, _, forks, snapshot, _ = traced(
        config, backend, prepare=prepare, hook=False)
    assert (serial_forks, forks) == (0, 1)
    assert serial.final.queries_executed > 0
    assert forked.samples == serial.samples
    assert _campaign_counters(snapshot) == _campaign_counters(serial_snapshot)
    assert outcomes == serial_outcomes
    assert forked.bug_log.incidents == serial.bug_log.incidents


@needs_two_cpus
def test_the_final_drain_checks_part_of_the_backlog_in_the_loop():
    """The queries not yet sent to a slow checker are checked in the loop's
    process; the checker's executions reach the registry as overlapped."""
    forked, _, _, forks, snapshot, _ = traced(CLASSIC, SlowCheckerBackend,
                                              hook=False)
    assert forks == 1
    executed = forked.final.queries_executed
    assert snapshot.phase_seconds()["execute.target"][1] == executed
    in_loop = snapshot.phase_seconds(overlapped=False).get(
        "execute.target", (0.0, 0))[1]
    assert 0 < in_loop < executed


def _slow_generation(tester):
    """Make every generation take 2 ms longer, so the loop trails the checker."""
    generate = tester.dsg.generate_statement

    def slow(**kwargs):
        time.sleep(0.002)
        return generate(**kwargs)

    tester.dsg.generate_statement = slow


@needs_two_cpus
def test_answers_are_applied_while_the_loop_generates():
    drained_at = []

    def prepare(tester):
        _slow_generation(tester)
        settle = tester.settle

        def recorded():
            drained_at.append(len(tester.outcomes))
            settle()

        tester.settle = recorded

    result, _, _, forks = run(CLASSIC, prepare=prepare, hook=False)
    assert forks == 1
    queries = result.final.queries_generated
    assert drained_at[0] >= queries // 2


def _waits_before_the_final_drain(waits):
    """A *prepare* hook: append to *waits* the settle spans recorded when the
    loop's only settle, the final drain, starts."""
    def prepare(tester):
        settle = tester.settle

        def final_drain():
            phases = obs.get_registry().snapshot().phase_seconds()
            waits.append(phases.get("settle", (0.0, 0))[1])
            settle()

        tester.settle = final_drain

    return prepare


@needs_two_cpus
def test_a_campaign_within_the_window_waits_only_in_its_final_drain():
    queries = CLASSIC.hours * CLASSIC.queries_per_hour
    assert queries + CLASSIC.hours <= differential.CHECK_WINDOW
    waits = []
    result, _, _, forks, snapshot, wall = traced(
        CLASSIC, SlowCheckerBackend, prepare=_waits_before_the_final_drain(waits),
        hook=False)
    assert forks == 1 and result.final.queries_executed == queries
    assert waits == [0]
    assert snapshot.phase_seconds()["settle"][0] > 0
    assert obs.phase_total_seconds(snapshot) <= wall


@needs_two_cpus
def test_a_full_window_waits_in_the_settle_span():
    config = replace(CLASSIC, hours=1,
                     queries_per_hour=differential.CHECK_WINDOW + 64)
    waits = []
    result, _, _, forks, snapshot, wall = traced(
        config, SlowCheckerBackend, prepare=_waits_before_the_final_drain(waits),
        hook=False)
    assert forks == 1
    assert result.final.queries_executed == config.queries_per_hour
    assert waits[0] > 0
    assert obs.phase_total_seconds(snapshot) <= wall


@needs_two_cpus
def test_a_hook_runs_before_the_next_hour_generates():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    seen = []

    def hook(record):
        seen.append((record.sample.queries_generated, tester.queries_generated,
                     len(tester.outcomes)))

    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    try:
        run_campaign_loop(tester, result, CLASSIC.hours,
                          CLASSIC.queries_per_hour, on_hour=hook)
        assert tester.checker_forks == 1
    finally:
        tester.close()
    assert seen == [(hour * CLASSIC.queries_per_hour,) * 3
                    for hour in range(1, CLASSIC.hours + 1)]


@needs_two_cpus
def test_a_callable_budget_is_read_after_the_last_hour_is_finished():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    reads = []

    def budget(hour):
        reads.append((hour, len(result.samples), len(tester.outcomes)))
        return CLASSIC.queries_per_hour

    try:
        run_campaign_loop(tester, result, CLASSIC.hours, budget)
        assert tester.checker_forks == 1
    finally:
        tester.close()
    assert reads == [(hour, hour - 1, (hour - 1) * CLASSIC.queries_per_hour)
                     for hour in range(1, CLASSIC.hours + 1)]


#: A campaign that fits in the checker's window, with far more query bytes
#: than a socket buffer holds.
FULL_WINDOW = replace(CLASSIC, hours=2,
                      queries_per_hour=differential.CHECK_WINDOW // 2 - 4)


@needs_two_cpus
def test_answers_larger_than_the_pipe_do_not_deadlock():
    """Each answer is larger than the pipe holds, and the loop sends a
    window of queries faster than the checker reads them.  A loop whose sends could block
    while the checker blocks writing such an answer would hang here."""

    def deadlocked(signum, frame):
        raise AssertionError("the forked campaign did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        forked, outcomes, _, forks = run(FULL_WINDOW, MismatchingBackend,
                                         hook=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    serial, serial_outcomes, _, _ = run(FULL_WINDOW, MismatchingBackend,
                                        fork=False, hook=False)
    assert forks == 1
    assert forked.final.queries_executed == len(outcomes) > 0
    assert all(len(outcome.incident.query_sql) > LONG_SQL
               for outcome in outcomes)
    assert forked.samples == serial.samples
    assert outcomes == serial_outcomes
    assert forked.bug_log.incidents == serial.bug_log.incidents


# ------------------------------------------------------- lifecycle, failures


@needs_two_cpus
def test_close_reaps_the_checker():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    try:
        run_campaign_loop(tester, result, 1, 4)
        assert tester.checker_forks == 1
    finally:
        tester.close()
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_close_reaps_the_checker_after_a_loop_that_raised_mid_hour():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    generate = tester.dsg.generate_statement
    calls = [0]

    def breaking(**kwargs):
        calls[0] += 1
        if calls[0] == 18:
            raise RuntimeError("generator broke")
        return generate(**kwargs)

    tester.dsg.generate_statement = breaking
    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    try:
        with pytest.raises(RuntimeError, match="generator broke"):
            run_campaign_loop(tester, result, CLASSIC.hours,
                              CLASSIC.queries_per_hour)
        assert tester.checker_forks == 1
    finally:
        tester.close()
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_an_oracle_exception_reaches_the_loop_with_its_type():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    check = tester.oracle.check
    calls = [0]

    def exploding(query, label=""):
        calls[0] += 1
        if calls[0] == 5:
            raise ValueError("the oracle broke")
        return check(query, label)

    tester.oracle.check = exploding
    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    try:
        with pytest.raises(ValueError, match="the oracle broke"):
            run_campaign_loop(tester, result, CLASSIC.hours,
                              CLASSIC.queries_per_hour)
        assert tester.checker_forks == 1
        # The checker's own call count stayed there: the loop never checked.
        assert calls[0] == 0
    finally:
        tester.close()
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_a_killed_checker_is_a_campaign_error_within_a_second():
    tester = build_differential_tester(SQLiteBackend(), CLASSIC)
    killed = []

    def kill_after_hour_one(record):
        if record.hour == 1:
            (checker,) = _checkers()
            os.kill(checker.pid, signal.SIGKILL)
            killed.append(time.monotonic())

    result = CampaignResult(tool="t", dbms="d", dataset=CLASSIC.dataset)
    try:
        with pytest.raises(CampaignError, match="exit code -9"):
            run_campaign_loop(tester, result, CLASSIC.hours,
                              CLASSIC.queries_per_hour,
                              on_hour=kill_after_hour_one)
        assert time.monotonic() - killed[0] < 1.0
        assert len(result.samples) == 1
    finally:
        tester.close()
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------- telemetry


@needs_two_cpus
def test_the_checkers_telemetry_reaches_the_live_registry():
    serial, _, _, _, serial_snapshot, _ = traced(CLASSIC, "sim:SimMySQL",
                                                 fork=False)
    forked, _, _, forks, snapshot, _ = traced(CLASSIC, "sim:SimMySQL")
    assert forks == 1
    executed = forked.final.queries_executed
    phases = snapshot.phase_seconds()
    assert phases["execute.reference"][1] == executed
    assert phases["execute.target"][1] == executed
    assert phases["judge"][1] == executed
    assert phases["generate"][1] == forked.final.queries_generated

    assert _campaign_counters(snapshot) == _campaign_counters(serial_snapshot)
    assert _campaign_counters(snapshot)["campaign.queries_executed"] == executed


def test_absorb_folds_like_a_snapshot_merge():
    donor = obs.MetricsRegistry()
    donor.counter("c", kind="x").inc(3)
    donor.gauge("g").set(2.5)
    donor.histogram("h").observe(0.1)
    target = obs.MetricsRegistry()
    target.counter("c", kind="x").inc(4)
    target.gauge("g").set(1.0)
    target.histogram("h").observe(0.2)
    expected = target.snapshot().merge(donor.snapshot())
    target.absorb(donor.snapshot())
    assert target.snapshot() == expected


def test_absorbed_phases_count_but_cover_no_wall_clock():
    donor = obs.MetricsRegistry()
    donor.observe_phase("judge", 0.25)
    donor.observe_phase("generate", 0.5)
    target = obs.MetricsRegistry()
    target.observe_phase("generate", 1.0)
    target.absorb(donor.snapshot())
    snapshot = target.snapshot()
    assert snapshot.phase_seconds() == {"generate": (1.5, 2), "judge": (0.25, 1)}
    assert snapshot.phase_seconds(overlapped=False) == {"generate": (1.0, 1)}
    assert obs.phase_total_seconds(snapshot) == 1.0
    assert "span coverage: 50.0% of 2.000s" in obs.render_phase_breakdown(
        snapshot, wall_seconds=2.0)


# --------------------------------------------------------------- exclusions


@pytest.fixture
def no_checker(monkeypatch):
    """Fail the test if anything forks a checker."""
    def forbidden(oracle):
        raise AssertionError("a checker was forked")

    monkeypatch.setattr(differential, "CheckerProcess", forbidden)


def _in_process(config=CLASSIC, backend="sqlite"):
    result, _, _, forks = run(config, backend)
    assert forks == 0
    return result


def test_one_cpu_checks_in_process(monkeypatch, no_checker):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _in_process()


def test_a_live_thread_keeps_checks_in_process(no_checker):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="bystander")
    thread.start()
    try:
        _in_process()
    finally:
        stop.set()
        thread.join()


def test_a_backend_that_does_not_survive_a_fork_checks_in_process(no_checker):
    _in_process(backend=UnforkableBackend)


def test_pool_shards_check_in_process(no_checker):
    """A shard runs in a daemonic process beside its heartbeat thread; the
    forked workers inherit the fixture, so a checker fork fails the shard."""
    shards = parallel.build_shard_specs("differential", replace(CLASSIC, hours=2),
                                        2, backend="sqlite")
    pool = parallel.ParallelCampaignConfig(workers=2, sync_interval=1,
                                           worker_timeout=120.0,
                                           start_method="fork")
    result = parallel.run_parallel_shards(shards, pool)
    assert result.merged.final.queries_executed > 0


def test_a_daemonic_process_checks_in_process(monkeypatch, no_checker):
    monkeypatch.setattr(multiprocessing.current_process(), "_config",
                        dict(multiprocessing.current_process()._config,
                             daemon=True))
    _in_process()


def test_which_backends_survive_a_fork(tmp_path):
    assert SQLiteBackend().survives_fork
    assert not SQLiteBackend(str(tmp_path / "campaign.db")).survives_fork
    assert SimulatedBackend(SIM_MYSQL).survives_fork
    assert not UnforkableBackend.survives_fork


@pytest.mark.usefixtures("alone")
def test_a_database_file_is_never_offered_to_a_checker(monkeypatch, tmp_path):
    """With every other condition met, an in-memory database may fork a
    checker and a database file may not, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert differential.checker_can_fork(SQLiteBackend())
    assert not differential.checker_can_fork(
        SQLiteBackend(str(tmp_path / "campaign.db")))


@needs_two_cpus
def test_a_file_backed_sqlite_campaign_checks_in_process(tmp_path):
    """A connection to a database file never crosses a fork, so a
    file-backed campaign checks in the loop's process, and reports what the
    in-memory campaign (which forks) reports."""
    path = str(tmp_path / "campaign.db")
    in_memory, _, _, memory_forks = run(CLASSIC, "sqlite")
    on_file, _, _, file_forks = run(CLASSIC, lambda: SQLiteBackend(path))
    assert (memory_forks, file_forks) == (1, 0)
    assert on_file.final.queries_executed > 0
    assert on_file.samples == in_memory.samples
    assert on_file.bug_log.incidents == in_memory.bug_log.incidents


@pytest.mark.usefixtures("alone")
def test_the_host_affinity_picks_the_path():
    """Forked with two CPUs or more; in-process with one (``taskset -c 0``)."""
    _, _, _, forks = run(replace(CLASSIC, hours=1))
    assert forks == (1 if _two_cpus() else 0)
    assert not _checkers()
