"""Differential oracle: reference executor vs an external backend.

The simulated campaigns verify engine results against the wide-table ground
truth.  When the target is a *real* engine (SQLite today; DuckDB / MySQL /
Postgres adapters later), the reference executor plays the role SQLancer's
baselines give to a second implementation: every TQS-generated query runs on
both sides and the two results are judged by
:func:`~repro.engine.resultset.agree`.  :func:`preserves_duplicates` picks the
relation per query shape: set equality for DISTINCT projections and
aggregates, bag equality where duplicates are part of the answer (UNION ALL
compounds).  The comparison is ``tolerant``, so representation drift such as
the reference's exact ``Decimal`` against a backend's ``REAL`` is not a
mismatch.  Any disagreement is filed through the existing
:class:`~repro.core.bug_report.BugLog`.

A campaign loop may move the checking into a :class:`CheckerProcess`, a
forked copy of the tester's oracle (see :meth:`DifferentialTester.start_checker`):
the loop's process then generates, labels and registers the next query while
the checker runs the last one.  The answers are applied in the order the
queries were sent, and an hour is finished when the checker answers the
marker that follows its last query (:meth:`DifferentialTester.finish_hour`),
not when the loop reaches the hour's end: up to :data:`CHECK_WINDOW` queries
and markers may be in flight across hour boundaries, and the loop waits only
when the window is full or when :meth:`DifferentialTester.settle` drains it,
checking the queries the checker has not been sent yet itself.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import select
import signal
import socket
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro import obs
from repro.backends.base import BackendAdapter, BackendExecution
from repro.core.bug_report import BugIncident, BugLog
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine
from repro.engine.resultset import Relation, ResultSet, agree
from repro.errors import BackendError, CampaignError, GenerationError, RenderError
from repro.kqe.explorer import KQE
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraphBuilder
from repro.plan.logical import AnyQuerySpec, CompoundQuerySpec
from repro.plan.sqlrender import SQLRenderer


@dataclass
class DifferentialConfig:
    """Knobs of a differential campaign."""

    use_kqe: bool = True
    max_generation_retries: int = 5
    seed: int = 97


def preserves_duplicates(query: AnyQuerySpec) -> bool:
    """Whether *query*'s result is a multiset, selecting the compared relation.

    DISTINCT projections and aggregates produce sets; a compound with UNION
    ALL (or a plain non-DISTINCT, non-aggregated projection) can legitimately
    emit duplicate rows, where the multiplicity itself is part of the answer
    — two engines returning ``[1, 1]`` vs ``[1]`` disagree.
    """
    if isinstance(query, CompoundQuerySpec):
        return query.preserves_duplicates()
    return not query.distinct and not query.has_aggregates()


@dataclass
class DifferentialOutcome:
    """What one differential iteration observed."""

    query: AnyQuerySpec
    canonical_label: str
    sql: str
    matched: bool
    skipped: bool = False
    skip_reason: str = ""
    incident: Optional[BugIncident] = None
    reference_rows: int = 0
    observed_rows: int = 0

    @property
    def detected(self) -> bool:
        """True when the backend disagreed with the reference executor."""
        return not self.matched and not self.skipped

    def answer(self) -> "CheckAnswer":
        """What :meth:`DifferentialOracle.apply` needs to recount this outcome."""
        return (self.skipped, self.skip_reason, self.sql, self.reference_rows,
                self.observed_rows, self.incident)


#: A checker process's answer for one query: skipped, skip reason, SQL,
#: reference rows, observed rows and the incident filed, if any.
CheckAnswer = Tuple[bool, str, str, int, int, Optional[BugIncident]]


class DifferentialOracle:
    """Compares one backend against the bug-free reference executor."""

    def __init__(self, reference: Engine, backend: BackendAdapter,
                 bug_log: Optional[BugLog] = None,
                 config: Optional[DifferentialConfig] = None) -> None:
        self.reference = reference
        self.backend = backend
        self.bug_log = bug_log if bug_log is not None else BugLog()
        self.config = config or DifferentialConfig()
        self.comparisons = 0
        self.skipped = 0

    def _skip(self, query: AnyQuerySpec, label: str,
              reason: str) -> DifferentialOutcome:
        self.skipped += 1
        return DifferentialOutcome(
            query=query, canonical_label=label, sql="", matched=True,
            skipped=True, skip_reason=reason,
        )

    def check(self, query: AnyQuerySpec, label: str = "") -> DifferentialOutcome:
        """Run *query* on the target, then on the reference, and :meth:`judge`.

        A mismatch is filed in :attr:`bug_log`.  A query the dialect cannot
        express (RenderError) or the engine rejects at runtime (BackendError)
        is skipped, not filed: it is not a *logic* bug, and skipping keeps one
        unsupported construct from aborting a long campaign.
        """
        if query.limit is not None:
            # LIMIT without a total order picks an engine-chosen subset; two
            # correct engines may legitimately disagree, so it is incomparable.
            return self._skip(query, label, "LIMIT result is engine-defined")
        try:
            execution: BackendExecution = self.backend.execute(query)
        except (RenderError, BackendError) as error:
            obs.get_registry().counter(
                "execute.errors",
                backend=self.backend.name,
                kind=type(error).__name__,
            ).inc()
            return self._skip(query, label, str(error))
        with obs.span("execute.reference"):
            reference_result = self.reference.execute(query)
        return self.judge(query, label, execution, reference_result)

    def judge(self, query: AnyQuerySpec, label: str,
              execution: BackendExecution,
              reference_result: ResultSet) -> DifferentialOutcome:
        """Compare one (execution, reference result) pair into a verdict."""
        self.comparisons += 1
        with obs.span("judge"):
            relation = (Relation.BAG_EQUAL if preserves_duplicates(query)
                        else Relation.SET_EQUAL)
            matched = agree(reference_result, execution.result, relation,
                            tolerant=True)
        outcome = DifferentialOutcome(
            query=query,
            canonical_label=label,
            sql=execution.sql,
            matched=matched,
            reference_rows=len(reference_result),
            observed_rows=len(execution.result),
        )
        if not matched:
            incident = BugIncident(
                dbms=self.backend.name,
                query_sql=execution.sql or SQLRenderer().query(query),
                hint_name="default",
                detection_mode="backend_differential",
                query_canonical_label=label,
                fired_bug_ids=execution.fired_bug_ids,
                expected_rows=len(reference_result),
                observed_rows=len(execution.result),
            )
            self.bug_log.record(incident)
            outcome.incident = incident
        return outcome

    def apply(self, query: AnyQuerySpec, label: str,
              answer: CheckAnswer) -> DifferentialOutcome:
        """Count a checker process's *answer* for *query* as :meth:`check`
        would have counted the check, and return its outcome."""
        skipped, skip_reason, sql, reference_rows, observed_rows, incident = answer
        if skipped:
            self.skipped += 1
        else:
            self.comparisons += 1
        if incident is not None:
            self.bug_log.record(incident)
        return DifferentialOutcome(
            query=query, canonical_label=label, sql=sql,
            matched=incident is None, skipped=skipped, skip_reason=skip_reason,
            incident=incident, reference_rows=reference_rows,
            observed_rows=observed_rows,
        )


#: Queries and hour markers the loop may hold ahead of the checker's answers
#: before it waits for one.  Pickled, a perfbench ``diff-sqlite`` query took
#: 4.5 KB in the median and 10.6 KB at most, a ``diff-widened`` one 6.8 KB
#: and 31.5 KB, and an incident-free answer 0.3 to 1.5 KB (960 queries of
#: each).  So a whole 96-query campaign fits in the window but not in a
#: 212,992-byte socket buffer: what does not fit waits in the
#: :class:`CheckerProcess` outbox, and the loop never blocks on a send.
CHECK_WINDOW = 128
#: Bytes a message is charged in the pipe beyond its length.  The kernel
#: charges a message at most about twice its length plus 1.3 KB (measured
#: on Linux with 200 to 8,000-byte messages), so requests charged this much
#: and kept to half the socket's send buffer never fill it.
MESSAGE_OVERHEAD = 1536
#: Seconds :meth:`CheckerProcess.close` waits for the checker to exit
#: before it kills it.
CHECKER_EXIT_TIMEOUT_S = 5.0
_MARK = "mark"


def checker_can_fork(backend: BackendAdapter) -> bool:
    """Whether a campaign against *backend* may check in a forked process.

    Of what it inherits, the checker touches only the tester's oracle (the
    deployed backend, the reference engine and the judge), its end of the
    pipe and the telemetry registry, which it resets before its first check.
    So the backend must declare that it survives a fork: an in-memory SQLite
    database is copied whole into the checker, but a connection to a file
    would be shared by two processes.  The ``fork`` start method must also
    exist, the process must be allowed at least two CPUs (on one the two
    halves would only take turns), no other Python thread may be alive (a
    fork copies the locks another thread holds) and the process must not be
    daemonic (a daemon cannot have children).  A pool shard fails the last
    two: it runs in a daemonic worker beside its heartbeat thread, and its
    sibling shards already fill the CPUs.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return (backend.survives_fork
            and "fork" in multiprocessing.get_all_start_methods()
            and affinity is not None and len(affinity(0)) >= 2
            and threading.active_count() == 1
            and not multiprocessing.current_process().daemon)


def _pin(cpus: Set[int]) -> None:
    """Restrict this process to *cpus*, where the host lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # a cpuset may forbid it; the process then runs unpinned


def _serve_checks(oracle: DifferentialOracle,
                  connection: multiprocessing.connection.Connection,
                  parent_end: multiprocessing.connection.Connection,
                  cpu: int) -> None:
    """The checker's body: check each ``(query, label)`` received, in order.

    An hour marker is answered with the telemetry recorded since the last
    one; ``None`` (or the loop's end of the pipe closing) ends the process.
    """
    parent_end.close()
    # Ctrl-C interrupts the loop, which stops the checker; not the checker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pin({cpu})
    obs.reset_registry()
    while True:
        try:
            request = connection.recv()
        except EOFError:
            return
        if request is None:
            return
        if request == _MARK:
            connection.send(("telemetry", obs.get_registry().snapshot()))
            obs.reset_registry()
            continue
        query, label = request
        try:
            outcome = oracle.check(query, label)
        except Exception as error:  # sent back, re-raised by the loop
            connection.send(("error", error))
            continue
        connection.send(("checked", outcome.answer()))


def _send_buffer_bytes(connection: multiprocessing.connection.Connection) -> int:
    """The kernel send buffer of *connection*'s socket, in bytes."""
    with socket.fromfd(connection.fileno(), socket.AF_UNIX,
                       socket.SOCK_STREAM) as sock:
        return int(sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF))


class CheckerProcess:
    """A forked process that runs one oracle's :meth:`~DifferentialOracle.check`.

    It inherits the oracle, so the reference engine and the backend, from
    the fork; it reads queries from a pipe and answers each in the order
    received.  The loop's process waits on the pipe and the process sentinel
    together, so a checker that dies is a :class:`CampaignError` naming its
    exit code, never a hang.

    Requests go through an outbox.  Only as many are written to the pipe as
    fit in half its send buffer, each charged :data:`MESSAGE_OVERHEAD` bytes
    beyond its length; the rest are written as answers come back, unless
    :meth:`take_back` takes one back first.  So a send never blocks, and the
    two processes cannot both wait on a write: the checker may wait to write
    an answer, but only ever while the loop is generating, checking or
    reading.

    Until :meth:`release`, the checker runs on the highest CPU this process
    may use and this process on the others.  Left to the scheduler, a pipe's
    wakeups tend to put both processes on one CPU: on a 2-vCPU guest the
    forked loop then ran about 30% slower than the in-process one.
    """

    def __init__(self, oracle: DifferentialOracle) -> None:
        self._affinity = os.sched_getaffinity(0)
        cpu = max(self._affinity)
        context = multiprocessing.get_context("fork")
        self._connection, child_end = context.Pipe()
        self._capacity = _send_buffer_bytes(self._connection) // 2
        # Requests not written yet, each next to its pickle, and the charge
        # of each one written whose answer has not been received.
        self._outbox: Deque[Tuple[memoryview, Any]] = deque()
        self._charges: Deque[int] = deque()
        self._charged = 0
        # Connection.poll() builds a selector per call (6.2 us against 0.66);
        # the loop polls once an iteration.
        self._poller = select.poll()
        self._poller.register(self._connection.fileno(), select.POLLIN)
        self._process = context.Process(
            target=_serve_checks,
            args=(oracle, child_end, self._connection, cpu),
            name="differential-checker", daemon=True)
        try:
            self._process.start()
        except BaseException:
            self._connection.close()
            raise
        finally:
            child_end.close()
        self._released = False
        _pin(self._affinity - {cpu})

    def send(self, request: Any) -> None:
        """Queue one request, a ``(query, label)`` pair or an hour marker,
        and write every queued request that fits in the pipe."""
        self._outbox.append((ForkingPickler.dumps(request), request))
        self._flush()

    def take_back(self) -> Optional[Tuple[AnyQuerySpec, str]]:
        """Remove the newest ``(query, label)`` request not written yet from
        the outbox and return it; None when there is none."""
        outbox = self._outbox
        for index in range(len(outbox) - 1, -1, -1):
            request = outbox[index][1]
            if isinstance(request, tuple):
                del outbox[index]
                return request
        return None

    def _flush(self) -> None:
        outbox = self._outbox
        while outbox:
            charge = len(outbox[0][0]) + MESSAGE_OVERHEAD
            # One request always goes: with nothing else in the pipe, the
            # checker is reading it.
            if self._charges and self._charged + charge > self._capacity:
                return
            try:
                self._connection.send_bytes(outbox.popleft()[0])
            except OSError as error:
                raise self._died() from error
            self._charges.append(charge)
            self._charged += charge

    def ready(self) -> bool:
        """Whether :meth:`receive` would return (or raise) without waiting."""
        return bool(self._poller.poll(0))

    def receive(self) -> Any:
        """The next answer's payload; the outbox then writes what now fits.

        An exception the check raised is re-raised here, with its type and
        message.
        """
        connection = self._connection
        if not self.ready():
            ready = multiprocessing.connection.wait(
                [connection, self._process.sentinel])
            if connection not in ready:
                raise self._died()
        try:
            kind, payload = connection.recv()
        except (EOFError, OSError) as error:
            raise self._died() from error
        self._charged -= self._charges.popleft()
        self._flush()
        if kind == "error":
            raise payload
        return payload

    def _died(self) -> CampaignError:
        self._process.join(1.0)
        return CampaignError(
            "the differential checker process died (exit code "
            f"{self._process.exitcode})")

    def release(self) -> None:
        """Tell the checker to exit once its queue is done; do not wait.

        Requests still in the outbox are dropped.
        """
        if self._released:
            return
        self._released = True
        self._outbox.clear()
        _pin(self._affinity)
        try:
            # A checker stuck writing an answer nobody reads may have left
            # the pipe full; close() kills it then.
            os.set_blocking(self._connection.fileno(), False)
            self._connection.send(None)
        except OSError:
            pass  # it is gone already, or the pipe is full; close() reaps it

    def close(self) -> None:
        """Release the checker, wait a bounded time for it, then kill it."""
        self.release()
        process = self._process
        process.join(CHECKER_EXIT_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join()
        self._connection.close()


#: A request the loop awaits an answer to: a ``(query, label)`` check, or an
#: hour marker's :meth:`DifferentialTester.finish_hour` callback.
_InFlight = Union[Tuple[AnyQuerySpec, str], Callable[[], None]]


class DifferentialTester:
    """The TQS loop re-targeted at a backend: generate, render, execute, compare.

    Mirrors :class:`~repro.core.tqs.TQS` (generation retries, KQE guidance,
    diversity accounting) but replaces the wide-table ground-truth verification
    with the differential oracle.  One instance drives one backend over one
    DSG-generated database.
    """

    def __init__(self, dsg: DSG, backend: BackendAdapter,
                 reference: Optional[Engine] = None,
                 config: Optional[DifferentialConfig] = None) -> None:
        self.dsg = dsg
        self.backend = backend
        self.config = config or DifferentialConfig()
        self.reference = reference or Engine(dsg.database)
        self.oracle = DifferentialOracle(self.reference, backend,
                                         config=self.config)
        # Checks this process takes back from its checker (see settle()).
        self._spare = DifferentialOracle(self.reference, backend,
                                         config=self.config)
        self.kqe = (
            KQE(dsg.ndb.schema, rng=random.Random(self.config.seed + 1))
            if self.config.use_kqe else None
        )
        self.graph_builder = QueryGraphBuilder(dsg.ndb.schema)
        self.diversity = IsomorphicSetCounter()
        self.queries_generated = 0
        self.outcomes: List[DifferentialOutcome] = []
        self._closed = False
        # The running checker, every checker forked (close() reaps them), and
        # the queries and hour markers sent to the running one whose answers
        # are outstanding.
        self._checker: Optional[CheckerProcess] = None
        self._checkers: List[CheckerProcess] = []
        self._in_flight: Deque[_InFlight] = deque()

    @property
    def bug_log(self) -> BugLog:
        """The accumulated mismatch log."""
        return self.oracle.bug_log

    @property
    def queries_executed(self) -> int:
        """Number of cross-engine comparisons performed."""
        return self.oracle.comparisons

    @property
    def explored_isomorphic_sets(self) -> int:
        """Distinct query-graph isomorphism classes generated so far."""
        return self.diversity.distinct_sets

    def _generate(self) -> AnyQuerySpec:
        chooser = self.kqe.extension_chooser if self.kqe is not None else None
        last_error: Optional[Exception] = None
        for _ in range(self.config.max_generation_retries):
            try:
                return self.dsg.generate_statement(extension_chooser=chooser)
            except GenerationError as error:
                last_error = error
        raise GenerationError(f"query generation kept failing: {last_error}")

    def run_iteration(self) -> Optional[DifferentialOutcome]:
        """Generate one query and compare the backend against the reference.

        With a checker process started (:meth:`start_checker`) the query is
        sent to it and None is returned; its outcome is applied by a later
        call, at the latest by :meth:`settle`.
        """
        with obs.span("generate"):
            query = self._generate()
            self.queries_generated += 1
            label = self.graph_builder.build(query).canonical_label()
            self.diversity.add_label(label)
            if self.kqe is not None:
                self.kqe.register(query)
        checker = self._checker
        if checker is None:
            outcome = self.oracle.check(query, label)
            self.outcomes.append(outcome)
            return outcome
        self._submit(checker, (query, label))
        return None

    # ------------------------------------------------------- checker process

    @property
    def checker_forks(self) -> int:
        """How many checker processes this tester has forked."""
        return len(self._checkers)

    def start_checker(self) -> bool:
        """Fork a :class:`CheckerProcess` for this tester's checks, if allowed.

        Returns whether a checker now runs them; see :func:`checker_can_fork`
        for when one may.  Until :meth:`stop_checker`, :meth:`run_iteration`
        only sends its query, and later calls apply the answers.
        """
        if self._checker is None and not self._closed and checker_can_fork(
                self.backend):
            self._checker = CheckerProcess(self.oracle)
            self._checkers.append(self._checker)
        return self._checker is not None

    def finish_hour(self, finish: Callable[[], None]) -> None:
        """Call *finish* once every query generated so far has its answer applied.

        In-process that is now.  With a checker, an hour marker follows the
        queries down the pipe and *finish* runs when its answer is applied,
        after the checker's telemetry since the last marker is folded into
        the live registry; the caller may go on generating meanwhile.
        """
        checker = self._checker
        if checker is None:
            finish()
        else:
            self._submit(checker, finish)

    def settle(self) -> None:
        """Apply every outstanding answer.

        Answers are applied in the order the queries were sent; each updates
        the oracle's counters, :attr:`bug_log` and :attr:`outcomes` as the
        in-process check would have, and each hour marker runs its
        :meth:`finish_hour` callback.  A check's exception is re-raised here
        at the latest.  While no answer is waiting, this process checks the
        newest query still in the checker's outbox itself, so both processes
        work off the backlog; it waits for the checker, in the ``settle``
        span, only when the outbox holds no query.
        """
        checker = self._checker
        if checker is None:
            return
        # Answers of the queries taken back, by the identity of their entry.
        answered: Dict[int, CheckAnswer] = {}
        while self._in_flight:
            head = self._in_flight[0]
            if id(head) in answered:
                self._apply(answered.pop(id(head)))
            elif checker.ready():
                self._apply(checker.receive())
            else:
                request = checker.take_back()
                if request is None:
                    with obs.span("settle"):
                        self._apply(checker.receive())
                else:
                    # The spare oracle's counts are dropped: the answer is
                    # counted when it is applied, in order.
                    answered[id(request)] = self._spare.check(*request).answer()

    def stop_checker(self) -> None:
        """Tell the checker to exit, without waiting; later checks run here.

        Unsettled answers are dropped: call :meth:`settle` first.
        :meth:`close` reaps the process.
        """
        checker, self._checker = self._checker, None
        self._in_flight.clear()
        if checker is not None:
            checker.release()

    def _submit(self, checker: CheckerProcess, entry: _InFlight) -> None:
        """Send *entry*'s request, its query and label or an hour marker,
        after applying every answer already waiting; wait for one first (in
        the ``settle`` span) if the window is full."""
        while self._in_flight and checker.ready():
            self._apply(checker.receive())
        if len(self._in_flight) >= CHECK_WINDOW:
            with obs.span("settle"):
                self._apply(checker.receive())
        checker.send(entry if isinstance(entry, tuple) else _MARK)
        self._in_flight.append(entry)

    def _apply(self, answer: Any) -> None:
        entry = self._in_flight.popleft()
        if isinstance(entry, tuple):
            query, label = entry
            self.outcomes.append(self.oracle.apply(query, label, answer))
        else:
            obs.get_registry().absorb(answer)
            entry()

    def close(self) -> None:
        """Reap any checker process, then close the backend.

        Safe to call twice; every campaign/worker error path funnels through
        here so neither adapters nor checkers are leaked.
        """
        if self._closed:
            return
        self._closed = True
        self.stop_checker()
        try:
            for checker in self._checkers:
                checker.close()
        finally:
            self.backend.close()

    def run(self, iterations: int) -> BugLog:
        """Run several iterations, skipping failed generations."""
        for _ in range(iterations):
            try:
                self.run_iteration()
            except GenerationError:
                continue
        return self.bug_log
