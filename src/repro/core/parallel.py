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

The coordinator is one :class:`~repro.distributed.server.IndexServer` on a
loopback socket, and every worker process talks to it through
:class:`~repro.distributed.client.RemoteSyncTransport` — the same server,
client and wire that ``python -m repro.distributed`` runs across machines.
So the pool and a distributed campaign share one barrier, one
:class:`~repro.distributed.coordinator.CentralCoordinator` and one failure
policy (round deadlines, disconnect detection, STATS), and for the same seed
they are bit-identical.  The pool's worker processes run the remote worker
body itself (:func:`~repro.distributed.client.run_remote_client`), each
claiming its own shard, and the pool hosts its server through the same
routine as ``serve`` (:func:`~repro.distributed.server.host_campaign`).

Run long campaigns on the local pool from the command line::

    python -m repro.distributed run --workers 4 --hours 24 --queries-per-hour 12
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro import obs
from repro.core.budget import budget_policy_from_name, split_budget
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
from repro.distributed.protocol import IndexEntry, SyncBroadcast
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
    # The index server's round deadline: once a sync round opens, laggards
    # have this long to deliver their batch before the pool fails naming
    # them (heartbeats prove liveness, not progress).  Size it well above the
    # slowest shard's per-hour runtime.  A worker that dies is caught sooner,
    # when its connection drops.
    worker_timeout: float = 300.0
    start_method: Optional[str] = None  # None = platform default ("fork" on Linux)
    # The pool has one transport.  Only "tcp" is accepted, for the benchmark
    # harness (perfbench/run.py) that still passes it; the field goes when
    # that harness is next revised.
    transport: str = "tcp"
    # Shared secret authenticating the server's frames (None = unkeyed tags:
    # corruption is still caught, but any local client can connect).
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
    # Print the index server's merged progress line (queries/s, novel-label
    # rate, bugs, phase mix) to stderr every few seconds and once more when
    # the campaign ends.  Pure presentation: the campaign's results are
    # bit-identical with it on or off.
    live_stats: bool = False

    def __post_init__(self) -> None:
        if self.transport != "tcp":
            raise CampaignError(
                f"unknown transport {self.transport!r}; the pool syncs over "
                "its loopback index server only ('tcp')"
            )


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


class SyncTransport(Protocol):
    """How one worker talks to the central coordinator.

    The protocol is four verbs: ``register`` once up front, ``sync`` at every
    scheduled hour boundary (shipping this hour's batch and receiving the
    previous round's broadcast of the other workers' entries, waiting only
    while that round is incomplete), ``report`` once at the end, and
    ``error`` on failure; ``tick`` is the out-of-band liveness heartbeat.
    :class:`~repro.distributed.client.RemoteSyncTransport` carries them over
    TCP; the worker body (:func:`run_shard_with_transport`) takes anything
    with these methods, so tests can wrap it to inject failures.
    """

    def register(self, shard_id: Optional[int]) -> Any:
        """Announce this worker to the coordinator before the campaign starts."""

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

    def report(self, report: "WorkerReport") -> None:
        """Deliver the finished shard's report to the coordinator."""

    def error(self, shard_id: int, text: str) -> None:
        """Tell the coordinator this worker failed (text = traceback)."""

    def tick(self, shard_id: int) -> None:
        """Liveness heartbeat; must be cheap and safe from a daemon thread."""

    def close(self) -> None:
        """Release the transport's connection."""


def run_shard_with_transport(spec: ShardSpec, sync_hours: Sequence[int],
                             transport: SyncTransport,
                             live_stats: bool = False) -> WorkerReport:
    """Run one shard's campaign, synchronizing through *transport*.

    The campaign half of the one worker body,
    :func:`~repro.distributed.client.run_remote_client`, which the pool's
    worker processes and the distributed CLI client both run.  It does not
    send the final report itself (the caller stops its heartbeat first); it
    returns the completed :class:`WorkerReport`.

    With *live_stats* a progress line is printed to stderr at every hour
    boundary (the distributed client's ``--live-stats``); the pool prints
    its index server's merged line instead.
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


def finalize_parallel_result(reports: Sequence[WorkerReport],
                             coordinator: CentralCoordinator,
                             workers: int, sync_rounds: int,
                             elapsed_seconds: float,
                             budget_policy: str = "even"
                             ) -> ParallelCampaignResult:
    """Merge worker reports and coordinator state into the campaign outcome.

    Shared by the pool and the distributed serve CLI so every deployment
    reports identical numbers for identical campaigns.
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

    The coordinator is an :class:`~repro.distributed.server.IndexServer` (the
    paper's index server) on a loopback socket; every worker process connects
    to it through :class:`~repro.distributed.client.RemoteSyncTransport`.
    Rounds are stale-synchronous: at each configured hour boundary the server
    collects one batch of (embedding, canonical label) pairs from every
    worker, merges them via :meth:`GraphIndex.add_embedding`, and broadcasts
    to each worker the entries contributed by the *other* workers (minus the
    ones that worker's known labels make redundant, when novelty pruning is
    on).  A worker receives round r's broadcast at its sync of the next
    scheduled hour; its first sync receives an empty one.  With one worker
    every broadcast is empty, so a parallel run is bitwise-identical to the
    serial runner.

    The pool fails with :class:`CampaignError` when a worker reports an error
    or disconnects before reporting, and when a round stays open
    ``parallel.worker_timeout`` seconds; the message names the shards.
    """
    from repro.distributed.client import run_remote_client
    from repro.distributed.server import IndexServer, host_campaign

    if not shards:
        raise CampaignError("at least one shard is required")
    parallel = parallel or ParallelCampaignConfig()
    hours = shards[0].config.hours
    if any(spec.config.hours != hours for spec in shards):
        raise CampaignError("all shards must run the same number of hours")
    # Fail fast on a bad policy name, before any process is spawned; the
    # policy object itself lives with the coordinator.
    budget_policy = budget_policy_from_name(parallel.budget_policy)
    sync_hours = sync_schedule(hours, parallel.sync_interval)
    context = (multiprocessing.get_context(parallel.start_method)
               if parallel.start_method else multiprocessing.get_context())
    server = IndexServer(shards=shards, sync_hours=sync_hours,
                         prune=parallel.prune_broadcasts,
                         round_timeout=parallel.worker_timeout,
                         budget_policy=budget_policy,
                         auth_key=parallel.auth_key)
    processes = [
        context.Process(
            target=run_remote_client,
            args=(server.host, server.port),
            kwargs=dict(
                io_timeout=max(60.0, parallel.worker_timeout * 2),
                heartbeat_interval=max(1.0, min(15.0, parallel.worker_timeout / 4)),
                auth_key=parallel.auth_key,
                claim=(spec, sync_hours),
            ),
            daemon=True,
            name=f"tqs-shard-{spec.shard_id}",
        )
        for spec in shards
    ]
    return host_campaign(
        server, parallel.budget_policy, workers=processes,
        live_prefix=f"pool[{len(shards)}w]" if parallel.live_stats else None)


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

    The single source of truth for shard construction: ``run_campaign`` and
    ``python -m repro.distributed``'s ``run``, ``serve`` and ``verify-local``
    use it, so a distributed deployment runs exactly the shards the local
    pool would for the same campaign.
    """
    check_campaign(spec)
    return [
        ShardSpec(shard_id=shard_id, kind=spec.kind, config=shard_config,
                  dialect=spec.dialect, baseline=spec.baseline,
                  backend=spec.backend)
        for shard_id, shard_config in enumerate(
            shard_campaign_configs(spec.campaign_config(), spec.workers))
    ]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit("python -m repro.core.parallel is retired; run the same "
                     "campaign flags with python -m repro.distributed run")
