"""Parallel query-space exploration (paper §4 last paragraph, Figure 10).

The paper parallelizes TQS by keeping the KQE graph index on a central server
while each client owns a database replica and a DSG process; the only shared
cost is synchronizing the index.  This module reproduces that design with a
real worker pool (:func:`run_parallel_shards`): campaigns sharded across
``multiprocessing`` worker processes by (derived seed, dataset,
dialect/backend), one :class:`ShardSpec` per worker, built by
:func:`build_shard_specs`.  Workers build their testers through the same
dispatch as the serial runner
(:func:`~repro.core.campaign.build_campaign_tester`) and run the same shared
iteration loop (:func:`~repro.core.campaign.run_campaign_loop`); at hour
boundaries they ship batches of (embedding, canonical label) pairs to the
coordinator, which merges them into a central
:class:`~repro.kqe.graph_index.GraphIndex` and broadcasts the other workers'
label-novel entries back — the paper's central-index synchronization.  It is
stale-synchronous: the sync at one scheduled hour ships that hour's batch and
receives the merged broadcast of the *previous* scheduled round, so a worker
never waits on its peers' current hour and never runs more than one round
ahead.  The broadcast applied at each hour is a fixed function of completed
rounds, so runs stay deterministic.  The coordinator merges per-worker
bug logs with cross-worker bug-type deduplication and rebuilds the per-hour
series contract on the merged result.  ``run_campaign(CampaignSpec(...,
workers=N))`` is the one-call front door.

The sync protocol itself is transport-agnostic: workers talk to the
coordinator through a :class:`SyncTransport`.  :class:`LocalSyncTransport`
carries it over ``multiprocessing`` queues (the in-process pool);
:class:`~repro.distributed.client.RemoteSyncTransport` carries the same verbs
over TCP to a :class:`~repro.distributed.server.IndexServer`, so shards can
run on separate machines (``transport="tcp"``, or the
``python -m repro.distributed`` CLI for genuinely remote clients).  Both paths
share one :class:`~repro.distributed.coordinator.CentralCoordinator`, so for
the same seed a TCP campaign is bit-identical to the in-process pool.

Run long campaigns from the command line::

    python -m repro.core.parallel --workers 4 --hours 24 --queries-per-hour 12
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import queue as queue_module
import sys
import threading
import time
import traceback
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, get_type_hints

from repro import obs
from repro.core.budget import (
    BudgetPolicy,
    budget_policy_from_name,
    registered_budget_policies,
    split_budget,
)
from repro.core.bug_report import BugIncident, BugLog
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    HourRecord,
    HourlySample,
    build_campaign_tester,
    check_campaign,
    config_values,
    run_campaign_loop,
)
from repro.distributed.coordinator import CentralCoordinator
from repro.distributed.protocol import IndexEntry, SyncBroadcast, load_auth_key
from repro.errors import CampaignError
from repro.kqe.graph_index import GraphIndex


def derive_worker_seed(campaign_seed: int, shard_id: int) -> int:
    """A deterministic, well-separated per-shard seed.

    Hash-derived (not ``seed + shard_id``) so neighbouring shards do not run
    correlated DSG pipelines — shard 1 with seed 5 must not equal shard 0 with
    seed 6.  Stable across processes and Python versions (unlike ``hash``).
    """
    digest = hashlib.sha256(f"tqs-shard:{campaign_seed}:{shard_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def shard_campaign_configs(config: CampaignConfig, workers: int) -> List[CampaignConfig]:
    """Split one campaign budget across *workers* shard configurations.

    Every shard keeps the full number of hours (so per-hour series line up for
    merging) but receives ``queries_per_hour / workers`` of the generation
    budget (remainder spread over the first shards) and a derived seed.
    """
    if workers < 1:
        raise CampaignError("at least one worker is required")
    # A shard with a zero budget would still pay a full DSG build and block
    # every sync barrier while contributing nothing; never create one.
    workers = max(1, min(workers, config.queries_per_hour))
    if workers == 1:
        # A 1-worker pool must be bitwise-identical to the serial runner on
        # the same config, so the campaign seed passes through unchanged.
        return [replace(config)]
    budgets = split_budget(config.queries_per_hour, workers)
    return [
        replace(
            config,
            queries_per_hour=budgets[shard_id],
            seed=derive_worker_seed(config.seed, shard_id),
        )
        for shard_id in range(workers)
    ]


@dataclass(frozen=True)
class ShardSpec:
    """One worker's assignment: what to test, against what, with which seed.

    Plain strings name the dialect / baseline / backend so the spec pickles
    across process boundaries; the worker materializes the actual objects.
    """

    shard_id: int
    kind: str  # "tqs" | "baseline" | "differential"
    config: CampaignConfig
    dialect: str = "SimMySQL"
    baseline: str = ""          # baseline name when kind == "baseline"
    backend: str = "sqlite"     # backend name when kind == "differential"


@dataclass
class ParallelCampaignConfig:
    """Knobs of the multi-process deployment."""

    workers: int = 4  # unread (the shard list sizes the pool); callers pass it
    sync_interval: int = 1       # simulated hours between index syncs; 0 = never
    # Progress deadline, transport-dependent: over "local" queues it is the
    # seconds without hearing from ANY worker (heartbeats included) before
    # the pool is declared dead; over "tcp" it feeds the IndexServer's
    # round_timeout — once a sync round opens, laggards have this long to
    # deliver their batch (heartbeats prove liveness, not progress).  Size it
    # well above the slowest shard's per-hour runtime.
    worker_timeout: float = 300.0
    start_method: Optional[str] = None  # None = platform default ("fork" on Linux)
    # "local" runs the sync protocol over multiprocessing queues; "tcp" hosts
    # an in-process IndexServer and has every worker connect over localhost —
    # the same code path remote clients use, so CI can exercise it end to end.
    transport: str = "local"
    tcp_host: str = "127.0.0.1"
    tcp_port: int = 0            # 0 = ephemeral port chosen by the OS
    # Shared secret authenticating the TCP transport's frames (None = unkeyed
    # tags: corruption is still caught, but any client can connect — fine on
    # localhost, not across hosts).
    auth_key: Optional[bytes] = None
    # Broadcast only label-novel entries to each worker (the coordinator's
    # novelty pruning).  Pruned and unpruned runs are each deterministic, but
    # differ from one another; the switch is campaign configuration.
    prune_broadcasts: bool = True
    # How the per-hour query budget is spread over the shards: "even" keeps
    # the historical fixed split; "adaptive" rebalances budget at every sync
    # round toward shards with higher novel-label discovery rates
    # (repro.core.budget).  Either way every hour's total budget is conserved
    # and runs are deterministic for a fixed seed.
    budget_policy: str = "even"
    # Print a live progress line (merged queries/s, novel-label rate, bugs,
    # phase mix) to stderr at every sync round.  Pure presentation: the
    # campaign's results are bit-identical with it on or off.
    live_stats: bool = False


@dataclass
class WorkerReport:
    """Everything a worker ships home when its shard completes."""

    shard_id: int
    tool: str
    dbms: str
    dataset: str
    samples: List[HourlySample]
    hourly_new_labels: List[List[str]]
    hourly_incidents: List[List[BugIncident]]
    unsynced_entries: List[IndexEntry] = field(default_factory=list)
    # The per-hour generation budget this worker actually ran each hour —
    # constant under the even policy, varying under adaptive rebalancing.
    hourly_budgets: List[int] = field(default_factory=list)
    # Sync-payload accounting: entries this worker shipped to the coordinator
    # (sync batches plus the unsynced tail above), entries it received in
    # broadcasts, and entries the coordinator's novelty pruning withheld from
    # it — so the payload reduction is measurable per worker.
    entries_shipped: int = 0
    broadcast_entries_received: int = 0
    broadcast_entries_suppressed: int = 0
    # Final cumulative telemetry snapshot of this worker's metrics registry
    # (:meth:`repro.obs.MetricsSnapshot.to_dict` form), or None when telemetry
    # is disabled.  A plain dict so the report pickles and JSON-encodes.
    telemetry: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ShardSyncStats:
    """Per-worker view of the sync traffic, for reporting and reconciliation."""

    shard_id: int
    entries_shipped: int
    broadcast_entries_received: int
    broadcast_entries_suppressed: int
    # Per-hour budget series for this shard (the adaptive policy's decisions,
    # or a constant line under the even policy).
    hourly_budgets: Tuple[int, ...] = ()


@dataclass
class ParallelCampaignResult:
    """Merged outcome of one multi-process campaign."""

    merged: CampaignResult
    shards: List[CampaignResult]
    workers: int
    sync_rounds: int
    elapsed_seconds: float
    central_index_size: int
    central_distinct_labels: int
    transport: str = "local"
    broadcast_entries_sent: int = 0
    broadcast_entries_suppressed: int = 0
    sync_stats: List[ShardSyncStats] = field(default_factory=list)
    budget_policy: str = "even"
    # Merged telemetry across all shards (snapshot-dict form), or None when
    # telemetry was disabled.  Lives *outside* the deterministic summary:
    # timings vary run to run even though verdicts do not.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def queries_per_second(self) -> float:
        """Aggregate generation throughput over wall-clock time."""
        generated = self.merged.final.queries_generated
        if self.elapsed_seconds <= 0:
            return float(generated)
        return generated / self.elapsed_seconds


def sync_schedule(hours: int, sync_interval: int) -> Tuple[int, ...]:
    """The hour boundaries at which workers and coordinator rendezvous.

    The final hour is excluded — there is no further generation a sync could
    inform, and skipping it removes one pointless barrier.
    """
    if sync_interval <= 0:
        return ()
    return tuple(h for h in range(1, hours) if h % sync_interval == 0)


def _shard_index(tester) -> Optional[GraphIndex]:
    """The tester's local KQE graph index, when it runs with KQE guidance."""
    kqe = getattr(tester, "kqe", None)
    return kqe.index if kqe is not None else None


class SyncTransport:
    """How one worker talks to the central coordinator.

    The protocol is four verbs: ``register`` once up front, ``sync`` at every
    scheduled hour boundary (shipping this hour's batch and receiving the
    previous round's broadcast of the other workers' entries, waiting only
    while that round is incomplete), ``report`` once at the end, and
    ``error`` on failure; ``tick`` is the out-of-band liveness heartbeat.
    Implementations carry the verbs over multiprocessing queues
    (:class:`LocalSyncTransport`) or TCP
    (:class:`~repro.distributed.client.RemoteSyncTransport`); the worker body
    (:func:`run_shard_with_transport`) is transport-blind.
    """

    def register(self, shard_id: Optional[int]) -> None:
        """Announce this worker to the coordinator before the campaign starts."""
        raise NotImplementedError

    def sync(self, shard_id: int, hour: int, entries: List[IndexEntry],
             telemetry: Optional[Dict[str, Any]] = None) -> SyncBroadcast:
        """Ship this hour's batch; return the previous round's broadcast.

        The first scheduled sync returns an empty broadcast.  The time spent
        blocked for the broadcast after the batch is sent is recorded as the
        ``sync.wait`` phase when telemetry is on.  *telemetry* is the
        worker's cumulative metrics snapshot (dict form), carried piggyback
        for the coordinator's live stats; it never influences the broadcast
        content.
        """
        raise NotImplementedError

    def report(self, report: "WorkerReport") -> None:
        """Deliver the finished shard's report to the coordinator."""
        raise NotImplementedError

    def error(self, shard_id: int, text: str) -> None:
        """Tell the coordinator this worker failed (text = traceback)."""
        raise NotImplementedError

    def tick(self, shard_id: int) -> None:
        """Liveness heartbeat; must be cheap and safe from a daemon thread."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (sockets); queues need no teardown."""


class LocalSyncTransport(SyncTransport):
    """The in-process pool's transport: a pair of multiprocessing queues."""

    def __init__(self, to_coordinator, from_coordinator) -> None:
        self._to_coordinator = to_coordinator
        self._from_coordinator = from_coordinator

    def register(self, shard_id: Optional[int]) -> None:
        # The local coordinator created the shards itself; nothing to announce.
        return None

    def sync(self, shard_id: int, hour: int, entries: List[IndexEntry],
             telemetry: Optional[Dict[str, Any]] = None) -> SyncBroadcast:
        self._to_coordinator.put(("sync", shard_id, hour, entries, telemetry))
        # Barrier: block until the coordinator has the previous round's
        # broadcast (queued before round 1 for the first sync).  The barrier
        # has no fixed deadline of its own — how long it takes depends on the
        # slowest peer, which a worker cannot bound; deadlock arbitration
        # belongs to the coordinator (which sees heartbeats from every
        # worker).  We only bail out if the coordinator process itself died,
        # so orphaned workers never hang forever.
        parent = multiprocessing.parent_process()
        with obs.span("sync.wait"):
            while True:
                try:
                    return self._from_coordinator.get(timeout=5.0)
                except queue_module.Empty:
                    if parent is not None and not parent.is_alive():
                        raise CampaignError("coordinator process died during sync")

    def report(self, report: "WorkerReport") -> None:
        self._to_coordinator.put(("done", report.shard_id, report))

    def error(self, shard_id: int, text: str) -> None:
        self._to_coordinator.put(("error", shard_id, text))

    def tick(self, shard_id: int) -> None:
        self._to_coordinator.put(("tick", shard_id))


def _make_worker_transport(transport_spec: Tuple) -> SyncTransport:
    """Materialize a transport inside the worker process.

    *transport_spec* must pickle across the process boundary, so it is a plain
    tagged tuple: ``("local", to_coordinator, from_coordinator)`` or
    ``("tcp", host, port, io_timeout, auth_key)``.
    """
    kind = transport_spec[0]
    if kind == "local":
        return LocalSyncTransport(transport_spec[1], transport_spec[2])
    if kind == "tcp":
        from repro.distributed.client import RemoteSyncTransport

        _, host, port, io_timeout, auth_key = transport_spec
        return RemoteSyncTransport(host, port,
                                   connect_timeout=min(60.0, io_timeout),
                                   io_timeout=io_timeout, auth_key=auth_key)
    raise CampaignError(f"unknown transport spec {transport_spec[0]!r}")


def run_shard_with_transport(spec: ShardSpec, sync_hours: Sequence[int],
                             transport: SyncTransport,
                             live_stats: bool = False) -> WorkerReport:
    """Run one shard's campaign, synchronizing through *transport*.

    This is the transport-blind worker body shared by the in-process pool's
    worker processes and the distributed CLI client.  It does not send the
    final report itself (callers manage heartbeat shutdown ordering); it
    returns the completed :class:`WorkerReport`.

    With *live_stats* a progress line is printed to stderr at every hour
    boundary (the distributed client's ``--live-stats``); the pool's
    coordinator renders its own merged line instead.
    """
    registry = obs.get_registry()
    run_start = time.perf_counter()
    with obs.span("setup"):
        tester, tool, dbms = build_campaign_tester(
            spec.kind, spec.config, dialect=spec.dialect,
            baseline=spec.baseline, backend=spec.backend,
        )
    index = _shard_index(tester)
    records: List[HourRecord] = []
    watermark = [len(index)] if index is not None else [0]
    shipped = [0]
    received = [0]
    suppressed = [0]
    # The live per-hour budget: starts at the shard's static allocation and is
    # overwritten by the coordinator's rebalancing decisions (when a budget
    # policy is active) at sync rounds.  ``hourly_budgets`` records what each
    # hour actually ran with, for the campaign report.
    current_budget = [spec.config.queries_per_hour]
    hourly_budgets: List[int] = []

    def budget_for_hour(hour: int) -> int:
        hourly_budgets.append(current_budget[0])
        return current_budget[0]

    def on_hour(record: HourRecord) -> None:
        records.append(record)
        if live_stats:
            print(
                obs.render_live_line(
                    registry.snapshot(),
                    time.perf_counter() - run_start,
                    hour=record.hour,
                    prefix=f"shard {spec.shard_id}",
                ),
                file=sys.stderr, flush=True,
            )
        if record.hour not in sync_hours:
            return
        entries: List[IndexEntry] = []
        if index is not None:
            # to_wire() is the sync protocol's single quantization point:
            # embeddings round-trip through float32 exactly once, here, so
            # every transport and wire protocol ships identical values.
            entries = index.entries_since(watermark[0]).to_wire()
        # The broadcast is the previous round's merge, so local state never
        # depends on timing, only on completed rounds' content.  The
        # cumulative telemetry snapshot rides piggyback on the sync payload so
        # the coordinator can render merged live stats mid-campaign.
        with obs.span("sync"):
            broadcast = transport.sync(spec.shard_id, record.hour, entries,
                                       telemetry=obs.snapshot_dict())
        shipped[0] += len(entries)
        received[0] += len(broadcast.entries)
        suppressed[0] += broadcast.suppressed
        if broadcast.next_budget is not None:
            current_budget[0] = broadcast.next_budget
        if index is not None:
            for vector, label in broadcast.entries:
                index.add_embedding(vector, label)
            watermark[0] = len(index)

    result = CampaignResult(tool="", dbms="", dataset=spec.config.dataset)
    try:
        run_campaign_loop(tester, result, spec.config.hours,
                          budget_for_hour, on_hour=on_hour)
    finally:
        # Differential testers own an adapter; close() is idempotent and
        # runs on every exit path so a failing shard cannot leak its
        # connection.
        closer = getattr(tester, "close", None)
        if closer is not None:
            closer()
    unsynced: List[IndexEntry] = []
    if index is not None:
        unsynced = index.entries_since(watermark[0]).to_wire()
    # The phase-coverage denominator: one observation of this shard's total
    # wall-clock, merged across shards by summing (histogram merge).
    registry.histogram("worker.run.seconds",
                       buckets=(1.0, 10.0, 60.0, 600.0, 3600.0)).observe(
        time.perf_counter() - run_start)
    return WorkerReport(
        shard_id=spec.shard_id,
        tool=tool,
        dbms=dbms,
        dataset=spec.config.dataset,
        samples=result.samples,
        hourly_new_labels=[record.new_labels for record in records],
        hourly_incidents=[record.new_incidents for record in records],
        unsynced_entries=unsynced,
        entries_shipped=shipped[0] + len(unsynced),
        broadcast_entries_received=received[0],
        broadcast_entries_suppressed=suppressed[0],
        hourly_budgets=hourly_budgets,
        telemetry=obs.snapshot_dict(),
    )


def run_shard_with_heartbeat(spec: ShardSpec, sync_hours: Sequence[int],
                             transport: SyncTransport,
                             heartbeat_interval: float,
                             live_stats: bool = False) -> WorkerReport:
    """Run one shard with a liveness heartbeat ticking around it.

    The heartbeat runs on a daemon thread and keeps ticking through the DSG
    build and arbitrarily long hours, so the coordinator's progress deadline
    measures worker *death*, never workload size.  Barrier arbitration is the
    coordinator's job: over the local transport a parked worker keeps ticking
    (queue puts are independent), while over TCP ticks queue behind the
    in-flight sync exchange — there the sync message itself refreshes the
    server's activity clock, and the barrier resolves when the slowest peer's
    batch of the previous round (or the server's round deadline) arrives.
    Shared by the pool's worker processes and the distributed CLI client.
    """
    stop_heartbeat = threading.Event()

    def _heartbeat() -> None:
        while not stop_heartbeat.wait(heartbeat_interval):
            try:
                transport.tick(spec.shard_id)
            except Exception:
                # Coordinator gone; the main thread will notice.  Count the
                # dropped tick so a flaky transport shows up in telemetry.
                obs.get_registry().counter("heartbeat.errors").inc()
                return

    heartbeat = threading.Thread(target=_heartbeat, daemon=True,
                                 name=f"tqs-heartbeat-{spec.shard_id}")
    heartbeat.start()
    try:
        return run_shard_with_transport(spec, sync_hours, transport,
                                        live_stats=live_stats)
    finally:
        stop_heartbeat.set()


def _worker_main(spec: ShardSpec, sync_hours: Tuple[int, ...],
                 heartbeat_interval: float, transport_spec: Tuple) -> None:
    """Worker process body: run one shard, synchronizing at hour boundaries."""
    # Fork-started workers inherit the parent's registry contents; a fresh
    # registry keeps each shard's telemetry snapshot self-contained.
    obs.reset_registry()
    transport: Optional[SyncTransport] = None
    try:
        transport = _make_worker_transport(transport_spec)
        transport.register(spec.shard_id)
        report = run_shard_with_heartbeat(spec, sync_hours, transport,
                                          heartbeat_interval)
        transport.report(report)
    except BaseException:  # pragma: no cover - exercised via deadlock tests
        if transport is not None:
            try:
                transport.error(spec.shard_id, traceback.format_exc())
            except Exception:
                # The error channel itself is down; the coordinator's
                # deadline will catch the dead shard.  Leave a trace.
                obs.get_registry().counter("worker.error_notify_failures").inc()
    finally:
        if transport is not None:
            transport.close()


def merge_worker_reports(reports: Sequence[WorkerReport]
                         ) -> Tuple[CampaignResult, List[CampaignResult]]:
    """Merge per-shard reports into one campaign result plus per-shard views.

    The merged per-hour series keep the serial contract: every cumulative
    metric is monotone, ``isomorphic_sets`` is the size of the union of label
    sets across workers at each hour, and bug counts come from replaying every
    worker's incidents hour by hour through one :class:`BugLog` (so the same
    (root cause, structure) pair found by two workers counts once).
    """
    if not reports:
        raise CampaignError("no worker reports to merge")
    reports = sorted(reports, key=lambda report: report.shard_id)
    hours = len(reports[0].samples)
    if any(len(report.samples) != hours for report in reports):
        raise CampaignError("shards disagree on campaign length; cannot merge")
    merged_log = BugLog()
    union_labels: set = set()
    merged_samples: List[HourlySample] = []
    for index in range(hours):
        for report in reports:
            union_labels.update(report.hourly_new_labels[index])
            for incident in report.hourly_incidents[index]:
                merged_log.record(incident)
        merged_samples.append(
            HourlySample(
                hour=index + 1,
                queries_generated=sum(
                    r.samples[index].queries_generated for r in reports),
                queries_executed=sum(
                    r.samples[index].queries_executed for r in reports),
                isomorphic_sets=len(union_labels),
                bug_count=merged_log.bug_count,
                bug_type_count=merged_log.bug_type_count,
                generations_rejected=sum(
                    r.samples[index].generations_rejected for r in reports),
            )
        )
    first = reports[0]
    merged = CampaignResult(tool=first.tool, dbms=first.dbms,
                            dataset=first.dataset, samples=merged_samples,
                            bug_log=merged_log)
    shard_results: List[CampaignResult] = []
    for report in reports:
        shard_log = BugLog()
        for incidents in report.hourly_incidents:
            for incident in incidents:
                shard_log.record(incident)
        shard_results.append(
            CampaignResult(tool=report.tool, dbms=report.dbms,
                           dataset=report.dataset, samples=report.samples,
                           bug_log=shard_log)
        )
    return merged, shard_results


def _receive(result_queue, processes, timeout: float, pending=None):
    """One protocol message from any worker, failing fast on a dead pool.

    ``tick`` heartbeats (sent by a daemon thread in every live worker) are
    consumed here and reset the silence deadline, so a pool that is merely
    slow — a long DSG build, a heavy hour — is never mistaken for a dead one:
    the deadline only fires when *no worker process* has been heard from for
    *timeout* seconds, i.e. when the pool has actually died.

    Surviving peers' heartbeats must not mask a single *hard-killed* worker
    (SIGKILL/OOM sends no "error" message), so *pending* — a callable giving
    the processes still owed a message this round — is polled too: a dead
    pending worker fails the pool after a short grace period that lets any
    already-queued message from it drain first.
    """
    deadline = time.monotonic() + timeout
    dead_polls = 0
    while True:
        try:
            message = result_queue.get(timeout=1.0)
        except queue_module.Empty:
            owed = list(pending()) if pending is not None else list(processes)
            dead = [p for p in owed if not p.is_alive()]
            if dead:
                dead_polls += 1
                if dead_polls >= 3:
                    names = ", ".join(p.name for p in dead)
                    raise CampaignError(
                        f"worker process(es) {names} died without reporting; "
                        "aborting the pool"
                    )
            else:
                dead_polls = 0
            if time.monotonic() > deadline:
                raise CampaignError(
                    f"no worker made progress for {timeout:.0f}s; assuming a "
                    "deadlocked pool (raise worker_timeout for heavier "
                    "per-hour budgets)"
                )
            if not any(process.is_alive() for process in processes):
                raise CampaignError(
                    "every worker exited without reporting; see worker logs"
                )
            continue
        deadline = time.monotonic() + timeout
        if message[0] == "tick":
            continue
        return message


def finalize_parallel_result(reports: Sequence[WorkerReport],
                             coordinator: CentralCoordinator,
                             workers: int, sync_rounds: int,
                             elapsed_seconds: float, transport: str,
                             budget_policy: str = "even"
                             ) -> ParallelCampaignResult:
    """Merge worker reports and coordinator state into the campaign outcome.

    Shared by the in-process pool, the TCP pool and the distributed serve CLI
    so every deployment reports identical numbers for identical campaigns.
    """
    merged, shard_results = merge_worker_reports(list(reports))
    ordered = sorted(reports, key=lambda report: report.shard_id)
    snapshots = [obs.MetricsSnapshot.from_dict(report.telemetry)
                 for report in ordered if report.telemetry]
    telemetry = (obs.MetricsSnapshot.merge_all(snapshots).to_dict()
                 if snapshots else None)
    sync_stats = [
        ShardSyncStats(
            shard_id=report.shard_id,
            entries_shipped=report.entries_shipped,
            broadcast_entries_received=report.broadcast_entries_received,
            broadcast_entries_suppressed=report.broadcast_entries_suppressed,
            hourly_budgets=tuple(report.hourly_budgets),
        )
        for report in ordered
    ]
    return ParallelCampaignResult(
        merged=merged,
        shards=shard_results,
        workers=workers,
        sync_rounds=sync_rounds,
        elapsed_seconds=elapsed_seconds,
        central_index_size=len(coordinator.index),
        central_distinct_labels=coordinator.index.distinct_canonical_labels(),
        transport=transport,
        broadcast_entries_sent=coordinator.broadcast_entries_sent,
        broadcast_entries_suppressed=coordinator.broadcast_entries_suppressed,
        sync_stats=sync_stats,
        budget_policy=budget_policy,
        telemetry=telemetry,
    )


def run_parallel_shards(shards: Sequence[ShardSpec],
                        parallel: Optional[ParallelCampaignConfig] = None
                        ) -> ParallelCampaignResult:
    """Run shard campaigns in a real worker pool with central index sync.

    The coordinator owns the central :class:`GraphIndex` (the paper's index
    server).  Rounds are stale-synchronous: at each configured hour boundary it
    collects one batch of (embedding, canonical label) pairs from every worker,
    merges them via :meth:`GraphIndex.add_embedding`, and broadcasts to each
    worker the entries contributed by the *other* workers (minus the ones that
    worker's known labels make redundant, when novelty pruning is on).  A
    worker receives round r's broadcast at its sync of the next scheduled
    hour; its first sync receives an empty one.  With one worker every
    broadcast is empty, so a parallel run is bitwise-identical to the serial
    runner.

    With ``parallel.transport == "tcp"`` the coordinator is a real
    :class:`~repro.distributed.server.IndexServer` on a localhost socket and
    every worker connects through
    :class:`~repro.distributed.client.RemoteSyncTransport`; results are
    bit-identical to the ``"local"`` queue transport for the same seed.
    """
    if not shards:
        raise CampaignError("at least one shard is required")
    parallel = parallel or ParallelCampaignConfig(workers=len(shards))
    hours = shards[0].config.hours
    if any(spec.config.hours != hours for spec in shards):
        raise CampaignError("all shards must run the same number of hours")
    if parallel.transport not in ("local", "tcp"):
        raise CampaignError(
            f"unknown transport {parallel.transport!r}; expected 'local' or 'tcp'"
        )
    # Fail fast on a bad policy name, before any process is spawned; the
    # policy object itself lives with the coordinator.
    budget_policy = budget_policy_from_name(parallel.budget_policy)
    initial_budgets = {spec.shard_id: spec.config.queries_per_hour
                       for spec in shards}
    sync_hours = sync_schedule(hours, parallel.sync_interval)
    context = (multiprocessing.get_context(parallel.start_method)
               if parallel.start_method else multiprocessing.get_context())
    heartbeat_interval = max(1.0, min(15.0, parallel.worker_timeout / 4))
    if parallel.transport == "tcp":
        return _run_shards_over_tcp(shards, parallel, sync_hours, context,
                                    heartbeat_interval, budget_policy)
    result_queue = context.Queue()
    broadcast_queues = {spec.shard_id: context.Queue() for spec in shards}
    processes = [
        context.Process(
            target=_worker_main,
            args=(spec, sync_hours, heartbeat_interval,
                  ("local", result_queue, broadcast_queues[spec.shard_id])),
            daemon=True,
            name=f"tqs-shard-{spec.shard_id}",
        )
        for spec in shards
    ]
    coordinator = CentralCoordinator(prune=parallel.prune_broadcasts,
                                     budget_policy=budget_policy,
                                     initial_budgets=initial_budgets)
    procs_by_shard = {spec.shard_id: process
                      for spec, process in zip(shards, processes)}
    reports: Dict[int, WorkerReport] = {}
    start = time.perf_counter()
    for process in processes:
        process.start()
    round_telemetry: Dict[int, Dict[str, Any]] = {}
    # Batches of the rounds not yet merged; a worker may ship its next
    # round's batch before a peer ships this one's.
    open_rounds: Dict[int, Dict[int, List[IndexEntry]]] = {
        hour: {} for hour in sync_hours}
    try:
        # Every worker's first sync receives an empty broadcast.
        for spec in shards:
            broadcast_queues[spec.shard_id].put(SyncBroadcast())
        while open_rounds or len(reports) < len(shards):
            message = _receive(result_queue, processes, parallel.worker_timeout,
                               pending=lambda: [
                                   procs_by_shard[spec.shard_id]
                                   for spec in shards
                                   if spec.shard_id not in reports
                               ])
            if message[0] == "error":
                raise CampaignError(f"worker {message[1]} failed:\n{message[2]}")
            if message[0] == "done":
                report: WorkerReport = message[2]
                reports[report.shard_id] = report
                coordinator.absorb(report.unsynced_entries)
                continue
            if (message[0] != "sync" or message[2] not in open_rounds
                    or message[1] in open_rounds[message[2]]):
                raise CampaignError(
                    f"protocol violation: unexpected {message[0]}"
                    f"@{message[2] if len(message) > 2 else '?'}"
                )
            open_rounds[message[2]][message[1]] = message[3]
            if len(message) > 4 and message[4]:
                round_telemetry[message[1]] = message[4]
            # Merge in schedule order every round all workers have shipped.
            while open_rounds and len(open_rounds[min(open_rounds)]) == len(shards):
                round_hour = min(open_rounds)
                broadcasts = coordinator.complete_round(open_rounds.pop(round_hour))
                if open_rounds:
                    # The final round's broadcasts are never fetched.
                    for spec in shards:
                        broadcast_queues[spec.shard_id].put(
                            coordinator.deliver(broadcasts[spec.shard_id]))
                if parallel.live_stats and round_telemetry:
                    merged_snapshot = obs.MetricsSnapshot.merge_all(
                        obs.MetricsSnapshot.from_dict(snapshot)
                        for snapshot in round_telemetry.values()
                    )
                    print(
                        obs.render_live_line(merged_snapshot,
                                             time.perf_counter() - start,
                                             hour=round_hour,
                                             prefix=f"pool[{len(shards)}w]"),
                        file=sys.stderr, flush=True,
                    )
    finally:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    elapsed = time.perf_counter() - start
    return finalize_parallel_result(list(reports.values()), coordinator,
                                    workers=len(shards),
                                    sync_rounds=len(sync_hours),
                                    elapsed_seconds=elapsed,
                                    transport="local",
                                    budget_policy=parallel.budget_policy)


def _run_shards_over_tcp(shards: Sequence[ShardSpec],
                         parallel: ParallelCampaignConfig,
                         sync_hours: Tuple[int, ...], context,
                         heartbeat_interval: float,
                         budget_policy: BudgetPolicy) -> ParallelCampaignResult:
    """The ``transport="tcp"`` pool: an in-process IndexServer + TCP workers.

    Exercises the full distributed stack (framing, registration, barrier
    rounds, novelty pruning, report upload) on localhost behind the same
    :func:`run_parallel_shards` call as the queue transport.
    """
    from repro.distributed.server import IndexServer

    io_timeout = max(60.0, parallel.worker_timeout * 2)
    server = IndexServer(shards=shards, sync_hours=sync_hours,
                         host=parallel.tcp_host, port=parallel.tcp_port,
                         prune=parallel.prune_broadcasts,
                         round_timeout=parallel.worker_timeout,
                         budget_policy=budget_policy,
                         auth_key=parallel.auth_key)
    server.start()
    start = time.perf_counter()
    processes = [
        context.Process(
            target=_worker_main,
            args=(spec, sync_hours, heartbeat_interval,
                  ("tcp", server.host, server.port, io_timeout,
                   parallel.auth_key)),
            daemon=True,
            name=f"tqs-shard-{spec.shard_id}",
        )
        for spec in shards
    ]
    try:
        for process in processes:
            process.start()
        while not server.wait(0.5):
            if server.failure is not None:
                raise CampaignError(server.failure)
            if not any(process.is_alive() for process in processes):
                # Workers are gone; give in-flight frames a moment to land.
                if server.wait(2.0):
                    break
                raise CampaignError(
                    server.failure
                    or "every worker exited without reporting; see worker logs"
                )
        if server.failure is not None:
            raise CampaignError(server.failure)
    finally:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        server.stop()
    elapsed = time.perf_counter() - start
    return finalize_parallel_result(list(server.reports.values()),
                                    server.coordinator, workers=len(shards),
                                    sync_rounds=len(sync_hours),
                                    elapsed_seconds=elapsed, transport="tcp",
                                    budget_policy=parallel.budget_policy)


# ----------------------------------------------------------- shard building


def build_shard_specs(kind: str, config: CampaignConfig, workers: int,
                      dialect: str = "SimMySQL", baseline: str = "",
                      backend: str = "sqlite") -> List[ShardSpec]:
    """:func:`campaign_shards` for callers holding a :class:`CampaignConfig`."""
    return campaign_shards(CampaignSpec(
        **config_values(config), kind=kind, dialect=dialect, baseline=baseline,
        backend=backend, workers=workers))


def campaign_shards(spec: CampaignSpec) -> List[ShardSpec]:
    """The checked per-worker :class:`ShardSpec` assignments of *spec*.

    The single source of truth for shard construction: ``run_campaign``, both
    campaign CLIs and ``verify-local`` use it, so a distributed deployment
    runs exactly the shards the local pool would for the same campaign.
    """
    check_campaign(spec)
    return [
        ShardSpec(shard_id=shard_id, kind=spec.kind, config=shard_config,
                  dialect=spec.dialect, baseline=spec.baseline,
                  backend=spec.backend)
        for shard_id, shard_config in enumerate(
            shard_campaign_configs(spec.campaign_config(), spec.workers))
    ]


# ------------------------------------------------------------------ the CLI


def campaign_flags() -> Iterator[Tuple[Field, str]]:
    """Each flagged :class:`CampaignSpec` field with its dest (its echo key)."""
    for declared in fields(CampaignSpec):
        flag = declared.metadata["flag"]
        if flag is not None:
            yield declared, flag[2:].replace("-", "_")


def add_campaign_arguments(parser: argparse.ArgumentParser, workers: int) -> None:
    """Declare the campaign flags shared by both campaign CLIs.

    ``python -m repro.core.parallel`` and ``python -m repro.distributed serve``
    take the same campaign; only the *workers* default differs.  A campaign
    field is declared once, in :class:`CampaignConfig` or
    :class:`CampaignSpec`, and its flag is derived from that declaration;
    only the three deployment knobs are spelled out here.
    """
    types = get_type_hints(CampaignSpec)
    for declared, _ in campaign_flags():
        metadata = declared.metadata
        options: Dict[str, Any] = {
            "default": metadata.get("cli_default", declared.default),
            "help": metadata["help"],
        }
        if types[declared.name] is bool:
            options["action"] = "store_true"
        elif types[declared.name] in (int, float):
            options["type"] = types[declared.name]
        if "choices" in metadata:
            options["choices"] = metadata["choices"]
        parser.add_argument(metadata["flag"], **options)
    parser.set_defaults(workers=workers)
    parser.add_argument("--sync-interval", type=int, default=1,
                        help="hours between KQE index syncs; 0 disables "
                             "(default: 1)")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable novelty pruning: rebroadcast every "
                             "other shard's entries, not just label-novel "
                             "ones")
    parser.add_argument("--budget-policy", default="even",
                        choices=registered_budget_policies(),
                        help="per-hour budget split across shards: 'even' "
                             "(fixed) or 'adaptive' (rebalanced toward "
                             "shards discovering novel structures faster)")


def campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    """The :class:`CampaignSpec` that :func:`add_campaign_arguments` names.

    Also rebuilds a campaign from serve's recorded JSON echo: a flag an older
    echo lacks takes its field's default, and the key of a retired flag is
    ignored.  :func:`campaign_shards` checks it.
    """
    return CampaignSpec(**{
        declared.name: getattr(args, dest)
        for declared, dest in campaign_flags() if hasattr(args, dest)
    })


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.core.parallel``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.parallel",
        description="Run a TQS testing campaign sharded across worker processes "
                    "with central KQE index synchronization.",
    )
    add_campaign_arguments(parser, workers=4)
    parser.add_argument("--worker-timeout", type=float, default=300.0,
                        help="seconds without hearing from any worker before "
                             "the pool is declared dead (default: 300)")
    parser.add_argument("--transport", choices=("local", "tcp"),
                        default="local",
                        help="sync transport: in-process queues or a "
                             "localhost TCP index server (default: local)")
    parser.add_argument("--auth-key-file", default="",
                        help="file holding the shared secret that "
                             "authenticates the TCP transport's frames")
    parser.add_argument("--live-stats", action="store_true",
                        help="print a merged progress line (queries/s, novel "
                             "labels, bugs, phase mix) to stderr at every "
                             "sync round")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.core.parallel`` — run a long campaign on many cores."""
    from repro.analysis.reporting import render_table, render_worker_pool

    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        shards = campaign_shards(campaign_spec(args))
    except CampaignError as exc:
        parser.error(str(exc))
    outcome = run_parallel_shards(shards, ParallelCampaignConfig(
        sync_interval=args.sync_interval,
        worker_timeout=args.worker_timeout,
        transport=args.transport,
        auth_key=load_auth_key(args.auth_key_file) if args.auth_key_file else None,
        prune_broadcasts=not args.no_prune,
        budget_policy=args.budget_policy,
        live_stats=args.live_stats,
    ))
    print(render_worker_pool(outcome))
    final = outcome.merged.final
    print()
    print(render_table(
        ["hour", "queries", "isomorphic sets", "bugs", "bug types", "rejected"],
        [[s.hour, s.queries_generated, s.isomorphic_sets, s.bug_count,
          s.bug_type_count, s.generations_rejected]
         for s in outcome.merged.samples],
        title=f"Merged per-hour series ({outcome.merged.tool} vs "
              f"{outcome.merged.dbms})",
    ))
    print()
    assert outcome.merged.bug_log is not None
    print(outcome.merged.bug_log.summary())
    print(f"{final.queries_generated} queries in {outcome.elapsed_seconds:.1f}s "
          f"({outcome.queries_per_second:.1f} q/s) across {outcome.workers} "
          f"workers over {outcome.transport} transport "
          f"({outcome.budget_policy} budgets), "
          f"{outcome.sync_rounds} sync rounds, central index: "
          f"{outcome.central_index_size} entries / "
          f"{outcome.central_distinct_labels} distinct structures, "
          f"broadcasts: {outcome.broadcast_entries_sent} entries sent, "
          f"{outcome.broadcast_entries_suppressed} suppressed by novelty "
          f"pruning")
    if outcome.telemetry is not None:
        print()
        print(obs.render_phase_breakdown(
            obs.MetricsSnapshot.from_dict(outcome.telemetry)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Delegate to the canonical module object (runpy executes a separate
    # ``__main__`` copy of this file): shard specs must pickle as
    # ``repro.core.parallel.ShardSpec`` for spawn-based start methods.
    from repro.core.parallel import main as _canonical_main

    raise SystemExit(_canonical_main())
