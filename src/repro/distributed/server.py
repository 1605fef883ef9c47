"""The distributed KQE index server: the paper's central index, over TCP.

:class:`IndexServer` hosts one
:class:`~repro.distributed.coordinator.CentralCoordinator` behind a
``socketserver.ThreadingTCPServer`` and speaks the stale-synchronous protocol
of :mod:`repro.distributed.protocol`: clients REGISTER (either claiming a
pre-assigned shard id or asking the server to assign one of the campaign's
shards), SYNC a batch at every scheduled hour boundary and receive the merged
broadcast of the *previous* scheduled round (an empty one at the first), so a
client blocks only while a peer has not yet shipped that previous round —
never on the slowest peer's current hour.  They REPORT their finished shard,
and may request SHUTDOWN.

The wire is protocol v5 — HMAC-authenticated JSON frames opened by a HELLO
that must carry exactly that version — and nothing received from a socket is
ever unpickled.  Malformed or unauthenticated frames (a legacy pickle client's
among them) reject *that connection* and leave the server serving.

One handler thread serves each client connection; the sync barrier is a
condition variable: the thread that delivers a round's last batch computes
every worker's (novelty-pruned) broadcast under the lock, rounds merge in
schedule order, and the broadcast a worker applies at each hour is a fixed
function of completed rounds — so results do not depend on network timing,
and a campaign run against this server is bit-identical to the in-process
pool for the same seed.  A round's payloads are freed once every live shard
has fetched its broadcast; the final round's are never fetched and are freed
when the campaign completes.

Liveness is tracked per shard: every protocol message (including out-of-band
TICK heartbeats) refreshes its sender's activity clock, and once a sync round
opens, the shards that fail to deliver their batch within ``round_timeout``
seconds are declared stalled (checked by the serving loop, whether or not a
peer is waiting on that round) — heartbeats prove a process is alive, not that
it is making progress, so a wedged client can no longer park a barrier
forever.  What happens to a stalled or dead client is policy:
``evict_dead_clients=False`` (the default) fails the campaign fast, naming
the shards; ``evict_dead_clients=True`` evicts them instead — the barrier
releases, the survivors complete the round, and the evicted shard's per-hour
budget is redistributed (total conserved) via the coordinator.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import selectors
import socket
import socketserver
import sys
import threading
import time
from multiprocessing.process import BaseProcess
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.budget import BudgetPolicy
from repro.core.parallel import (
    ParallelCampaignResult,
    ShardSpec,
    WorkerReport,
    finalize_parallel_result,
)
from repro.distributed import protocol, wire
from repro.distributed.coordinator import CentralCoordinator
from repro.distributed.protocol import IndexEntry, JsonFrameCodec, SyncBroadcast
from repro.errors import CampaignError, ProtocolError, SnapshotError, TransportError
from repro.kqe.snapshot import SnapshotWriter, read_snapshot

#: File inside ``--snapshot-dir`` holding the round log for one campaign.
SNAPSHOT_FILENAME = "rounds.tqssnap"

#: Lock discipline, enforced by `python -m repro.lint` (CONC001): every
#: mutable campaign-state attribute below may only be touched inside
#: ``with self._cond:`` or in a ``*_locked`` method whose callers hold it.
GUARDED_BY = {
    "IndexServer": (
        "_cond",
        (
            "reports",
            "expected",
            "frames_rejected",
            "coordinator",
            "_shards",
            "_assignable",
            "_registered",
            "_evicted",
            "_shard_activity",
            "_round_batches",
            "_round_broadcasts",
            "_round_pending_fetch",
            "_round_opened",
            "_completed_hours",
            "_rounds_completed",
            "_replayed_counts",
            "_replay_pending",
            "_snapshot_writer",
            "_telemetry",
            "_failure",
            "_last_activity",
            "_stopped",
        ),
    ),
}


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Set after construction; typed here so handlers can reach the owner.
    index_server: "IndexServer"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # wake() writes a byte here to end the serving loop at once.
        self._wake_reader, self._wake_writer = socket.socketpair()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """socketserver's serving loop, which :meth:`wake` also ends."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select(poll_interval)]
                if self._wake_reader in ready:
                    return
                if self in ready:
                    self._handle_request_noblock()
                self.service_actions()

    def wake(self) -> None:
        """End the serving loop without waiting for it."""
        self._wake_writer.send(b"\0")

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()

    def service_actions(self) -> None:
        # Runs on every pass of the serving loop (``poll_interval``): round
        # deadlines hold even for a round no client is blocked on.
        super().service_actions()
        self.index_server.enforce_round_deadlines()


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: a loop of (frame in, frame out) exchanges."""

    def handle(self) -> None:
        owner = self.server.index_server  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        sock.settimeout(owner.round_timeout + 30.0)
        shard_ids: List[int] = []
        codec = owner.connection_codec()
        try:
            if not self._handshake(owner, sock, codec):
                return
            while True:
                try:
                    message = codec.recv(sock, allow_eof=True)
                except ProtocolError as exc:
                    # Malformed, truncated or unauthenticated input: reject
                    # this connection, keep serving everyone else.
                    owner.frame_rejected(shard_ids, str(exc))
                    self._abort(sock, codec, str(exc))
                    return
                if message is None:
                    break
                reply, keep_going = owner.dispatch(message, shard_ids)
                if reply is not None:
                    codec.send(sock, reply)
                if not keep_going:
                    break
        except TransportError as exc:
            owner.connection_broken(shard_ids, str(exc))
        finally:
            owner.connection_closed(shard_ids)

    def _handshake(self, owner: "IndexServer", sock, codec: JsonFrameCodec) -> bool:
        """The HELLO exchange; True when the connection may talk."""
        try:
            message = codec.recv(sock, allow_eof=True)
        except ProtocolError as exc:
            owner.frame_rejected([], str(exc))
            self._abort(sock, codec, f"handshake failed: {exc}")
            return False
        if message is None:
            return False
        if message[0] != protocol.HELLO:
            owner.frame_rejected([], f"no HELLO before {message[0]!r}")
            self._abort(
                sock,
                codec,
                f"the protocol requires a HELLO handshake before {message[0]!r}",
            )
            return False
        if message[1] != protocol.PROTOCOL_VERSION:
            owner.frame_rejected([], f"unsupported version {message[1]!r}")
            self._abort(
                sock,
                codec,
                f"unsupported protocol version {message[1]!r}; this server "
                f"speaks version {protocol.PROTOCOL_VERSION}",
            )
            return False
        # Bind the rest of the connection to a fresh nonce: frames captured
        # elsewhere fail authentication here, so replay cannot fail a round.
        nonce = os.urandom(16).hex()
        codec.send(sock, (protocol.HELLO_OK, protocol.PROTOCOL_VERSION, nonce))
        codec.bind(nonce)
        return True

    def _abort(self, sock, codec: JsonFrameCodec, reason: str) -> None:
        """Best-effort ABORT so the peer learns why it is being dropped."""
        try:
            codec.send(sock, (protocol.ABORT, reason))
        except TransportError:
            pass


class IndexServer:
    """Hosts the central graph index for N campaign workers over TCP."""

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        sync_hours: Sequence[int],
        host: str = "127.0.0.1",
        port: int = 0,
        prune: bool = True,
        round_timeout: float = 300.0,
        budget_policy: Optional[BudgetPolicy] = None,
        auth_key: Optional[bytes] = None,
        evict_dead_clients: bool = False,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        if not shards:
            raise TransportError("an index server needs at least one shard")
        self.sync_hours: Tuple[int, ...] = tuple(sync_hours)
        # The round whose broadcast a sync at each scheduled hour receives:
        # the previous scheduled one (None at the first).
        self._previous_hour: Dict[int, Optional[int]] = dict(
            zip(self.sync_hours, (None,) + self.sync_hours[:-1])
        )
        self.round_timeout = round_timeout
        self._auth_key = auth_key
        self.evict_dead_clients = evict_dead_clients
        self.coordinator = CentralCoordinator(
            prune=prune,
            budget_policy=budget_policy,
            initial_budgets={
                spec.shard_id: spec.config.queries_per_hour for spec in shards
            },
        )
        self.reports: Dict[int, WorkerReport] = {}
        self.expected = len(shards)
        self.frames_rejected = 0
        self._shards = {spec.shard_id: spec for spec in shards}
        self._assignable: List[ShardSpec] = sorted(
            shards, key=lambda spec: spec.shard_id
        )
        self._registered: set = set()
        self._evicted: Dict[int, str] = {}
        now = time.monotonic()
        self._shard_activity: Dict[int, float] = {spec.shard_id: now for spec in shards}
        # Open rounds: the batches in so far, and when the first arrived.
        self._round_batches: Dict[int, Dict[int, List[IndexEntry]]] = {}
        self._round_opened: Dict[int, float] = {}
        # Merged rounds whose broadcasts some live shard has yet to fetch.
        self._round_broadcasts: Dict[int, Dict[int, SyncBroadcast]] = {}
        self._round_pending_fetch: Dict[int, set] = {}
        self._completed_hours: set = set()
        self._rounds_completed = 0
        # Latest cumulative telemetry snapshot per shard (dict form), fed by
        # the SYNC piggyback mid-campaign and replaced by the REPORT's final
        # snapshot; merged on demand for STATS / Prometheus exposition.
        self._telemetry: Dict[int, Dict[str, Any]] = {}
        # Rounds replayed from a snapshot at startup: restarted clients
        # deterministically re-run the campaign from hour 0; their syncs at
        # these hours are checked against the logged entry counts, and the
        # stored broadcasts are served without re-merging anything.
        self._replayed_counts: Dict[int, Dict[int, int]] = {}
        self._replay_pending: Dict[int, set] = {}
        self._snapshot_writer: Optional[SnapshotWriter] = None
        self.snapshot_dir = snapshot_dir
        self.restored_rounds = 0
        self._cond = threading.Condition()
        self._done = threading.Event()
        self._failure: Optional[str] = None
        self._last_activity = now
        if snapshot_dir is not None:
            with self._cond:
                self._open_snapshot_locked(snapshot_dir)
        self._server = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._server.index_server = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    # ------------------------------------------------------------- lifecycle

    def connection_codec(self) -> JsonFrameCodec:
        """A fresh codec for one connection (each gets its own nonce binding)."""
        return JsonFrameCodec(self._auth_key)

    def start(self) -> "IndexServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name=f"kqe-index-server-{self.port}",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket (idempotent)."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
        self._server.wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server.server_close()
        with self._cond:
            writer, self._snapshot_writer = self._snapshot_writer, None
        if writer is not None:
            writer.close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every live shard reported (or the campaign failed)."""
        return self._done.wait(timeout)

    @property
    def failure(self) -> Optional[str]:
        """Why the campaign died, or None while it is healthy."""
        with self._cond:
            return self._failure

    @property
    def completed(self) -> bool:
        """True when every live (non-evicted) shard delivered its report."""
        with self._cond:
            return self._completed_locked()

    def _completed_locked(self) -> bool:
        # A campaign with no reports is never complete: evicting or losing
        # the last client leaves nothing to salvage.
        return bool(self.reports) and len(self.reports) >= self._live_expected_locked()

    @property
    def evicted(self) -> Dict[int, str]:
        """Shards evicted for liveness failures, with the reason for each."""
        with self._cond:
            return dict(self._evicted)

    def _live_expected_locked(self) -> int:
        return self.expected - len(self._evicted)

    # ------------------------------------------------------------- snapshots

    def _campaign_fingerprint_locked(self) -> str:
        """One hash pinning the campaign a snapshot belongs to.

        Derived from the shard specs, the sync schedule, the sync rule and
        the pruning switch: a snapshot only replays into the *same*
        deterministic campaign, anything else starts a fresh log.
        """
        material = json.dumps(
            {
                "shards": [wire.encode_shard_spec(spec) for spec in self._assignable],
                "sync_hours": list(self.sync_hours),
                "sync_rule": "stale-synchronous: a sync receives the previous round",
                "prune": self.coordinator.prune,
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _snapshot_header_locked(self) -> Dict[str, Any]:
        return {
            "kind": "kqe-server-rounds",
            "version": 1,
            "fingerprint": self._campaign_fingerprint_locked(),
        }

    def _open_snapshot_locked(self, snapshot_dir: str) -> None:
        """Restore any prior rounds for this campaign, then keep logging.

        The log is rewritten through a rename: valid records are replayed
        into the coordinator and re-appended to a fresh temp file that
        atomically replaces the old one — which silently sheds a torn final
        record (the crash case; that round simply re-runs live) and leaves
        the file structurally valid at every instant.
        """
        os.makedirs(snapshot_dir, exist_ok=True)
        path = os.path.join(snapshot_dir, SNAPSHOT_FILENAME)
        header = self._snapshot_header_locked()
        batches: List[Any] = []
        if os.path.exists(path):
            try:
                stored_header, batches, _ = read_snapshot(path)
            except SnapshotError as exc:
                raise TransportError(
                    f"cannot restore snapshot {path!r}: {exc}"
                ) from exc
            if stored_header != header:
                # A different campaign (or snapshot format) used this
                # directory; its rounds cannot replay into this one.
                batches = []
        with obs.span("server.snapshot.restore"):
            temp_path = path + ".tmp"
            writer = SnapshotWriter.create(temp_path, header)
            try:
                for batch in batches:
                    self._replay_batch_locked(batch)
                    writer.append(batch.vectors, batch.labels, batch.meta)
            except (OSError, SnapshotError, TransportError):
                writer.close()
                raise
            os.replace(temp_path, path)
            writer.path = path
        self._snapshot_writer = writer

    def _replay_batch_locked(self, batch: Any) -> None:
        """Re-merge one logged round; its broadcasts await the restarted shards."""
        hour = batch.meta.get("hour")
        shards = batch.meta.get("shards")
        if not isinstance(hour, int) or not isinstance(shards, list):
            raise TransportError(f"snapshot record meta is malformed: {batch.meta!r}")
        if hour not in self.sync_hours or hour in self._replayed_counts:
            raise TransportError(
                f"snapshot replays hour {hour} outside the campaign's schedule"
            )
        round_batches: Dict[int, List[IndexEntry]] = {}
        counts: Dict[int, int] = {}
        offset = 0
        for pair in shards:
            shard_id, count = int(pair[0]), int(pair[1])
            if shard_id not in self._shards or count < 0:
                raise TransportError(
                    f"snapshot names unknown shard {shard_id} at hour {hour}"
                )
            round_batches[shard_id] = [
                (batch.vectors[offset + position], batch.labels[offset + position])
                for position in range(count)
            ]
            counts[shard_id] = count
            offset += count
        if offset != len(batch.vectors):
            raise TransportError(
                f"snapshot record at hour {hour} claims {offset} entries "
                f"but holds {len(batch.vectors)}"
            )
        self._round_broadcasts[hour] = self.coordinator.replay_round(round_batches)
        self._round_pending_fetch[hour] = set(round_batches)
        self._completed_hours.add(hour)
        self._replayed_counts[hour] = counts
        self._replay_pending[hour] = set(round_batches)
        self._rounds_completed += 1
        self.restored_rounds += 1

    def _append_snapshot_locked(
        self, hour: int, batches: Dict[int, List[IndexEntry]]
    ) -> None:
        writer = self._snapshot_writer
        if writer is None:
            return
        shards: List[List[int]] = []
        vectors: List[List[float]] = []
        labels: List[str] = []
        for shard_id in sorted(batches):
            entries = batches[shard_id]
            shards.append([shard_id, len(entries)])
            for vector, label in entries:
                vectors.append([float(component) for component in vector])
                labels.append(label)
        try:
            with obs.span("server.snapshot.append"):
                writer.append(vectors, labels, {"hour": hour, "shards": shards})
        except (OSError, SnapshotError) as exc:
            # A campaign whose durability was requested but lost must fail
            # loudly, not complete with a silently unrecoverable log.
            self._fail_locked(f"snapshot append failed at hour {hour}: {exc}")

    def _replayed_sync_locked(
        self, shard_id: int, hour: int, entries: List[IndexEntry]
    ) -> Optional[Tuple[Any, ...]]:
        """Check a re-running shard's sync at a replayed hour against the log.

        Returns the ABORT reply when the shard diverges, None when its batch
        matches the logged entry count (the batch itself is already merged).
        """
        counts = self._replayed_counts[hour]
        if shard_id not in counts:
            return self._refused_locked(
                f"restore mismatch: shard {shard_id} synced at replayed hour "
                f"{hour} but was not part of the logged round"
            )
        if len(entries) != counts[shard_id]:
            return self._refused_locked(
                f"restore divergence: shard {shard_id} shipped {len(entries)} "
                f"entries at hour {hour} where the snapshot logged "
                f"{counts[shard_id]}; the restarted campaign is not replaying "
                "deterministically"
            )
        self._resynced_locked(hour, shard_id)
        return None

    def _resynced_locked(self, hour: int, shard_id: int) -> None:
        """*shard_id* no longer owes a re-sync at replayed *hour*."""
        pending = self._replay_pending[hour]
        pending.discard(shard_id)
        if not pending:
            del self._replayed_counts[hour]
            del self._replay_pending[hour]

    # ----------------------------------------------------------------- stats

    def stats_payload(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of server health plus merged worker telemetry.

        Served to the authenticated STATS verb and the Prometheus endpoint so
        barrier-stall debugging (who went silent, how many frames were
        rejected, which shards were evicted) no longer needs log scraping.
        """
        with self._cond:
            now = time.monotonic()
            merged = self._merged_telemetry_locked()
            return {
                "expected_shards": self.expected,
                "registered_shards": sorted(self._registered),
                "reports_received": len(self.reports),
                "rounds_completed": self._rounds_completed,
                "rounds_restored": self.restored_rounds,
                "sync_rounds_scheduled": len(self.sync_hours),
                "frames_rejected": self.frames_rejected,
                "eviction_count": len(self._evicted),
                "evictions": {
                    str(sid): reason for sid, reason in sorted(self._evicted.items())
                },
                "shard_last_heard_seconds": {
                    str(sid): round(now - heard, 3)
                    for sid, heard in sorted(self._shard_activity.items())
                },
                "completed": self._completed_locked(),
                "failure": self._failure,
                "telemetry": merged.to_dict() if merged is not None else None,
                "hours_reached": self._hours_reached_locked(),
            }

    def _hours_reached_locked(self) -> int:
        """The hours every live shard has done: the merged counter sums them."""
        hours = []
        for sid in self._live_shard_ids_locked():
            snapshot = obs.MetricsSnapshot.from_dict(self._telemetry.get(sid))
            hours.append(snapshot.counter_value("campaign.hours"))
        return min(hours, default=0)

    def _merged_telemetry_locked(self) -> Optional[obs.MetricsSnapshot]:
        if not self._telemetry:
            return None
        return obs.MetricsSnapshot.merge_all(
            obs.MetricsSnapshot.from_dict(snapshot)
            for _, snapshot in sorted(self._telemetry.items())
        )

    def render_prometheus(self) -> str:
        """The Prometheus text exposition for ``--metrics-addr`` scrapes."""
        stats = self.stats_payload()
        snapshot = (
            obs.MetricsSnapshot.from_dict(stats["telemetry"])
            if stats["telemetry"] is not None
            else None
        )
        return obs.render_prometheus(
            snapshot,
            extra_gauges={
                "server.frames_rejected": stats["frames_rejected"],
                "server.reports_received": stats["reports_received"],
                "server.registered_shards": len(stats["registered_shards"]),
                "server.expected_shards": stats["expected_shards"],
                "server.rounds_completed": stats["rounds_completed"],
                "server.evictions": stats["eviction_count"],
                "server.completed": int(stats["completed"]),
            },
        )

    def _live_shard_ids_locked(self) -> List[int]:
        return [sid for sid in self._shards if sid not in self._evicted]

    # -------------------------------------------------------------- failures

    def fail(self, reason: str) -> None:
        """Mark the campaign dead; wakes every barrier and waiter."""
        with self._cond:
            self._fail_locked(reason)

    def _refused_locked(self, reason: str) -> Tuple[str, str]:
        """Fail the campaign for *reason* and return the ABORT reply naming it.

        The reply carries *reason* itself, not ``self._failure``: a violation
        after the campaign completed fails nothing and leaves no failure
        behind, but the peer must still learn what it did wrong.
        """
        self._fail_locked(reason)
        return (protocol.ABORT, reason)

    def _fail_locked(self, reason: str) -> None:
        # Completion wins races: once every live shard has reported, a late
        # failure signal (e.g. the serve CLI's overall timeout firing just as
        # the last REPORT lands) must not discard a finished campaign.
        if self._failure is None and not self._completed_locked():
            self._failure = reason
        self._done.set()
        self._cond.notify_all()

    def frame_rejected(self, shard_ids: List[int], detail: str) -> None:
        """A connection sent a malformed/unauthenticated frame and was cut."""
        with self._cond:
            self.frames_rejected += 1
            self._connection_lost_locked(shard_ids, f"sent a malformed frame: {detail}")

    def connection_broken(self, shard_ids: List[int], detail: str) -> None:
        """A client connection died mid-protocol."""
        with self._cond:
            self._connection_lost_locked(
                shard_ids, f"connection broke before reporting: {detail}"
            )

    def connection_closed(self, shard_ids: List[int]) -> None:
        """A client connection reached EOF; fine unless its report is missing."""
        with self._cond:
            self._connection_lost_locked(
                shard_ids, "client disconnected before reporting"
            )

    def _connection_lost_locked(self, shard_ids: List[int], why: str) -> None:
        missing = [
            sid
            for sid in shard_ids
            if sid not in self.reports and sid not in self._evicted
        ]
        if not missing or self._done.is_set() or self._failure is not None:
            return
        if self.evict_dead_clients:
            for sid in missing:
                self._evict_locked(sid, why)
        else:
            self._fail_locked(f"shard(s) {missing}: {why}")

    # -------------------------------------------------------------- eviction

    def _evict_locked(self, shard_id: int, reason: str) -> None:
        """Remove a dead/stalled shard from the campaign and move on.

        Open rounds stop waiting for (and drop any batch from) the shard, its
        per-hour budget is redistributed to the survivors (conserving the
        campaign total), and completion is re-checked — the eviction of the
        last missing shard is what releases a stuck barrier.
        """
        if shard_id in self._evicted:
            return
        self._evicted[shard_id] = reason
        self._registered.discard(shard_id)
        self.coordinator.evict(shard_id)
        for batches in self._round_batches.values():
            batches.pop(shard_id, None)
        for hour in list(self._round_pending_fetch):
            self._fetched_locked(hour, shard_id)
        for hour in list(self._replay_pending):
            self._resynced_locked(hour, shard_id)
        if self._live_expected_locked() == 0:
            self._fail_locked("every client was evicted before the campaign completed")
            return
        self._complete_ready_rounds_locked()
        if self._completed_locked():
            self._finish_locked()
        self._cond.notify_all()

    def enforce_round_deadlines(self) -> None:
        """Apply the round deadline to every open round (see below)."""
        with self._cond:
            self._enforce_round_deadlines_locked()

    def _enforce_round_deadlines_locked(self) -> None:
        for hour in sorted(self._round_batches):
            self._enforce_round_deadline_locked(hour)

    def _enforce_round_deadline_locked(self, hour: int) -> None:
        """Once a round opens, the laggards have ``round_timeout`` to join.

        Heartbeats keep a *pre-round* client alive indefinitely, but they no
        longer count as barrier progress: a client that registers (and ticks)
        without ever syncing used to park the round forever.  Now it is
        evicted — or, without ``evict_dead_clients``, the campaign fails fast
        naming the stalled shards.
        """
        if hour not in self._round_batches or self._failure is not None:
            return
        opened = self._round_opened.get(hour)
        if opened is None:
            return
        now = time.monotonic()
        waited = now - opened
        if waited <= self.round_timeout:
            return
        batches = self._round_batches.get(hour, {})
        stalled = sorted(
            sid for sid in self._live_shard_ids_locked() if sid not in batches
        )
        if not stalled:
            return

        # The per-shard activity clock cannot excuse a laggard (its heartbeat
        # thread ticks whether the worker is computing or wedged), but it
        # tells the operator which failure they are looking at: a dead client
        # went silent, a wedged one was heard from moments ago.
        def last_heard(sid: int) -> str:
            return f"last heard from {now - self._shard_activity[sid]:.0f}s ago"

        if self.evict_dead_clients and len(stalled) < self._live_expected_locked():
            for sid in stalled:
                self._evict_locked(
                    sid,
                    f"no sync at hour {hour} within {self.round_timeout:.0f}s "
                    f"of the round opening ({last_heard(sid)})",
                )
        else:
            silence = ", ".join(f"shard {sid}: {last_heard(sid)}" for sid in stalled)
            self._fail_locked(
                f"sync barrier at hour {hour} waited {waited:.0f}s for "
                f"shard(s) {stalled} ({len(batches)}/{self._live_expected_locked()} "
                f"batches in; {silence}); assuming dead or stalled worker(s)"
            )

    # ------------------------------------------------------------ dispatch

    def dispatch(self, message, shard_ids: List[int]):
        """Handle one protocol message; returns (reply, keep_connection)."""
        if not isinstance(message, tuple) or not message:
            return (protocol.ABORT, "malformed message"), False
        verb = message[0]
        if verb == protocol.REGISTER:
            return self._register(message[1], shard_ids), True
        if verb == protocol.TICK:
            self._touch(message[1] if len(message) > 1 else None)
            return (protocol.OK,), True
        if verb == protocol.SYNC:
            # 4-tuple from pre-telemetry peers, 5-tuple with the piggybacked
            # metrics snapshot; the barrier semantics are identical.
            shard_id, hour, entries = message[1], message[2], message[3]
            telemetry = message[4] if len(message) > 4 else None
            return self._sync(shard_id, hour, entries, telemetry), True
        if verb == protocol.STATS:
            # Read-only and allowed from any authenticated connection (the
            # operator's stats CLI never registers as a shard).
            self._touch()
            return (protocol.STATS_OK, self.stats_payload()), True
        if verb == protocol.REPORT:
            return self._report(message[1]), True
        if verb == protocol.ERROR:
            _, shard_id, text = message
            # Only a *registered* worker's failure dooms the campaign.  A
            # superfluous client whose registration was rejected (operator
            # over-provisioned, or a crashed client restarted) also reports an
            # error on its way out, and so does an evicted client discovering
            # its eviction; a healthy run must shrug those off.
            with self._cond:
                self._touch_locked(shard_id)
                if shard_id in self._registered:
                    self._fail_locked(f"worker {shard_id} failed:\n{text}")
            return (protocol.OK,), True
        if verb == protocol.SHUTDOWN:
            self._shutdown_requested()
            return (protocol.OK,), False
        return (protocol.ABORT, f"unknown verb {verb!r}"), False

    def _touch(self, shard_id: Optional[int] = None) -> None:
        with self._cond:
            self._touch_locked(shard_id)

    def _touch_locked(self, shard_id: Optional[int] = None) -> None:
        now = time.monotonic()
        self._last_activity = now
        if shard_id is not None and shard_id in self._shard_activity:
            self._shard_activity[shard_id] = now

    def _register(self, shard_id: Optional[int], shard_ids: List[int]):
        with self._cond:
            if self._failure is not None:
                return (protocol.ABORT, self._failure)
            if shard_id is not None and shard_id in self._evicted:
                return (
                    protocol.ABORT,
                    f"shard {shard_id} was evicted: {self._evicted[shard_id]}",
                )
            if shard_id is None:
                # Server-side assignment: hand out the next unassigned shard.
                unassigned = [
                    spec
                    for spec in self._assignable
                    if spec.shard_id not in self._registered
                    and spec.shard_id not in self._evicted
                ]
                if not unassigned:
                    return (
                        protocol.ABORT,
                        f"all {self.expected} shards already have clients",
                    )
                spec: Optional[ShardSpec] = unassigned[0]
                shard_id = unassigned[0].shard_id
            else:
                if shard_id not in self._shards:
                    return (protocol.ABORT, f"unknown shard id {shard_id}")
                if shard_id in self._registered:
                    return (protocol.ABORT, f"shard {shard_id} already registered")
                spec = None  # the client brought its own spec
            self._registered.add(shard_id)
            shard_ids.append(shard_id)
            self._touch_locked(shard_id)
            return (protocol.REGISTERED, spec, self.sync_hours)

    def _sync(
        self,
        shard_id: int,
        hour: int,
        entries: List[IndexEntry],
        telemetry: Optional[Dict[str, Any]] = None,
    ):
        with self._cond:
            self._touch_locked(shard_id)
            if telemetry:
                self._telemetry[shard_id] = telemetry
            if self._failure is not None:
                return (protocol.ABORT, self._failure)
            if shard_id in self._evicted:
                return (
                    protocol.ABORT,
                    f"shard {shard_id} was evicted: {self._evicted[shard_id]}",
                )
            if shard_id not in self._registered:
                # A stray batch must not count toward (or corrupt) the
                # barrier; diagnose it instead of letting a later broadcast
                # lookup blow up on a legit worker's handler thread.
                return self._refused_locked(
                    f"protocol violation: sync from unregistered shard {shard_id}"
                )
            if hour in self._replayed_counts:
                # A restored campaign: the round was already merged (and its
                # outcome fsynced) before the crash; the restarted shard
                # deterministically re-derived the same batch.
                refusal = self._replayed_sync_locked(shard_id, hour, entries)
            else:
                refusal = self._record_batch_locked(shard_id, hour, entries)
            if refusal is not None:
                return refusal
            return self._previous_broadcast_locked(shard_id, hour)

    def _record_batch_locked(
        self, shard_id: int, hour: int, entries: List[IndexEntry]
    ) -> Optional[Tuple[Any, ...]]:
        """Add one shard's batch to its round; the ABORT reply if it is refused."""
        if hour not in self._previous_hour or hour in self._completed_hours:
            return self._refused_locked(
                f"protocol violation: sync at unscheduled or already "
                f"completed hour {hour}"
            )
        batches = self._round_batches.setdefault(hour, {})
        if shard_id in batches:
            return self._refused_locked(
                f"protocol violation: duplicate sync from shard "
                f"{shard_id} at hour {hour}"
            )
        self._round_opened.setdefault(hour, time.monotonic())
        batches[shard_id] = entries
        self._complete_ready_rounds_locked()
        return None

    def _previous_broadcast_locked(self, shard_id: int, hour: int) -> Tuple[Any, ...]:
        """The reply to a sync at *hour*: the previous round's broadcast.

        The sync at the first scheduled hour gets an empty broadcast at once.
        Later syncs wait only while a peer has not yet shipped the previous
        round, so no shard runs more than one round ahead of another.
        """
        previous = self._previous_hour[hour]
        if previous is None:
            return (protocol.BROADCAST, SyncBroadcast())
        while (
            previous not in self._round_broadcasts
            and self._failure is None
            and shard_id not in self._evicted
        ):
            self._cond.wait(timeout=1.0)
            self._enforce_round_deadlines_locked()
        if self._failure is not None:
            return (protocol.ABORT, self._failure)
        if shard_id in self._evicted:
            return (
                protocol.ABORT,
                f"shard {shard_id} was evicted: {self._evicted[shard_id]}",
            )
        broadcast = self._round_broadcasts[previous].get(shard_id)
        if broadcast is None:
            return self._refused_locked(
                f"protocol violation: shard {shard_id} synced at hour {hour} "
                f"without a batch in the round of hour {previous}"
            )
        self._fetched_locked(previous, shard_id)
        return (protocol.BROADCAST, self.coordinator.deliver(broadcast))

    def _fetched_locked(self, hour: int, shard_id: int) -> None:
        """*shard_id* no longer owes a fetch of round *hour*'s broadcast.

        A long campaign must not accumulate every round's broadcasts in
        server memory: the round's are freed once every live shard has them.
        """
        pending = self._round_pending_fetch[hour]
        pending.discard(shard_id)
        if not pending:
            del self._round_broadcasts[hour]
            del self._round_pending_fetch[hour]

    def _complete_ready_rounds_locked(self) -> None:
        """Merge every open round whose live shards have all shipped, in order.

        The completing thread computes every worker's (novelty-pruned)
        broadcast under the lock, round by round in schedule order and
        shard by shard in sorted order — timing cannot leak into the merged
        index or the broadcasts.
        """
        live = self._live_shard_ids_locked()
        for hour in sorted(self._round_batches):
            batches = self._round_batches[hour]
            if not live or any(sid not in batches for sid in live):
                return
            del self._round_batches[hour]
            self._round_opened.pop(hour, None)
            self._round_broadcasts[hour] = self.coordinator.complete_round(batches)
            self._round_pending_fetch[hour] = set(batches)
            self._completed_hours.add(hour)
            self._rounds_completed += 1
            # Log the round before any broadcast is released: once a worker
            # has seen the merge, a restart must be able to replay it.
            self._append_snapshot_locked(hour, batches)
            self._cond.notify_all()

    def _finish_locked(self) -> None:
        """Every live shard reported: free what no sync will fetch any more.

        That is the final round's broadcasts, plus any round a shard left
        early.
        """
        self._round_batches.clear()
        self._round_opened.clear()
        self._round_broadcasts.clear()
        self._round_pending_fetch.clear()
        self._replayed_counts.clear()
        self._replay_pending.clear()
        self._done.set()
        self._cond.notify_all()

    def _report(self, report: WorkerReport):
        with self._cond:
            self._touch_locked(report.shard_id)
            if self._failure is not None:
                return (protocol.ABORT, self._failure)
            if report.shard_id in self._evicted:
                return (
                    protocol.ABORT,
                    f"shard {report.shard_id} was evicted: "
                    f"{self._evicted[report.shard_id]}",
                )
            if report.shard_id not in self._registered:
                return self._refused_locked(
                    f"protocol violation: report from unregistered shard "
                    f"{report.shard_id}"
                )
            if report.shard_id in self.reports:
                return self._refused_locked(
                    f"protocol violation: duplicate report for shard "
                    f"{report.shard_id}"
                )
            self.coordinator.absorb(report.unsynced_entries)
            self.reports[report.shard_id] = report
            if report.telemetry:
                self._telemetry[report.shard_id] = report.telemetry
            if self._completed_locked():
                self._finish_locked()
            return (protocol.OK,)

    def _shutdown_requested(self) -> None:
        with self._cond:
            self._touch_locked()
            if not self._completed_locked():
                self._fail_locked("shutdown requested before campaign completed")
        # Stop serving from a helper thread: stop() joins the serve-forever
        # thread, which is fine from a handler thread but must not run under
        # the condition lock.
        threading.Thread(target=self.stop, daemon=True).start()


@contextlib.contextmanager
def live_stats(
    server: IndexServer, prefix: str, interval: float = 5.0
) -> Iterator[None]:
    """Print *server*'s merged progress line to stderr while the block runs.

    One line every *interval* seconds and a last one as the block exits, so
    even a campaign shorter than *interval* shows its final totals.  The
    line is read from :meth:`IndexServer.stats_payload`, the telemetry the
    workers piggyback on their syncs and reports; it is pure presentation.
    """
    start = time.perf_counter()
    stop = threading.Event()

    def loop() -> None:
        while True:
            stopping = stop.wait(interval)
            payload = server.stats_payload()
            elapsed = time.perf_counter() - start
            telemetry = payload["telemetry"]
            if telemetry:
                line = obs.render_live_line(
                    obs.MetricsSnapshot.from_dict(telemetry),
                    elapsed,
                    prefix=prefix,
                    hours=payload["hours_reached"],
                )
            else:
                line = (
                    f"{prefix} [{elapsed:6.1f}s] "
                    f"{len(payload['registered_shards'])}/"
                    f"{payload['expected_shards']} shards registered, "
                    "no telemetry yet"
                )
            print(line, file=sys.stderr, flush=True)
            if stopping:
                return

    thread = threading.Thread(target=loop, name=f"{prefix}-live-stats", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=5.0)


def host_campaign(
    server: IndexServer,
    budget_policy: str,
    workers: Sequence[BaseProcess] = (),
    timeout: Optional[float] = None,
    live_prefix: Optional[str] = None,
) -> ParallelCampaignResult:
    """Host one campaign on *server* and return its merged outcome.

    The one server lifecycle of the local pool and ``serve``: start serving,
    start the pool's worker processes (*workers*; ``serve`` has none, its
    clients connect from outside), wait until every live shard reported,
    then stop the server and merge the reports with
    :func:`~repro.core.parallel.finalize_parallel_result`.  With
    *live_prefix* the server's merged progress line is printed meanwhile.

    The campaign fails with :class:`CampaignError` naming why: the server's
    own failure (a worker error, a lost connection, a round deadline), every
    worker process gone without reporting, or no complete campaign within
    *timeout* seconds.
    """
    live = live_stats(server, live_prefix) if live_prefix else contextlib.nullcontext()
    server.start()
    start = time.perf_counter()
    try:
        with live:
            for worker in workers:
                worker.start()
            while not server.wait(0.5):
                if workers and not any(worker.is_alive() for worker in workers):
                    # Workers are gone; give in-flight frames a moment to land.
                    if not server.wait(2.0):
                        server.fail(
                            "every worker exited without reporting; see worker logs"
                        )
                    break
                if timeout is not None and time.perf_counter() - start > timeout:
                    server.fail(f"no complete campaign within {timeout:.0f}s")
                    break
        if server.failure is not None:
            raise CampaignError(server.failure)
    finally:
        for worker in workers:
            worker.join(timeout=5.0)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        server.stop()
    return finalize_parallel_result(
        list(server.reports.values()),
        server.coordinator,
        workers=server.expected,
        sync_rounds=len(server.sync_hours),
        elapsed_seconds=time.perf_counter() - start,
        budget_policy=budget_policy,
    )
