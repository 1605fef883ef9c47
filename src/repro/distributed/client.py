"""Client side of the distributed KQE index server.

:class:`RemoteSyncTransport` implements the worker-facing
:class:`~repro.core.parallel.SyncTransport` interface over one TCP connection,
so the exact worker body that runs inside the in-process pool
(:func:`~repro.core.parallel.run_shard_with_transport`) also runs against a
remote index server.  :func:`run_remote_client` is the full remote worker: it
connects, asks the server to assign it one of the campaign's shards, runs the
shard with a liveness heartbeat, and uploads the report —
``python -m repro.distributed client`` is a thin wrapper around it.

Every connection speaks protocol v3 — HMAC-authenticated JSON frames,
opened with a HELLO handshake right after the socket connects.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed import protocol
from repro.distributed.protocol import (
    IndexEntry,
    JsonFrameCodec,
    SyncBroadcast,
    client_handshake,
)
from repro.errors import TransportError


class RemoteSyncTransport:
    """One worker's TCP connection to the index server.

    All verbs share one socket; a lock serializes the request/response pairs
    so the heartbeat thread's TICKs interleave cleanly between the main
    thread's exchanges instead of corrupting the frame stream.  Connection is
    retried until *connect_timeout* so clients may start before the server
    finishes binding (the usual CI race).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 30.0,
        io_timeout: Optional[float] = 600.0,
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._io_timeout = io_timeout
        self._lock = threading.Lock()
        self._codec = JsonFrameCodec(auth_key)
        self._sock = self._connect(connect_timeout, io_timeout)
        try:
            client_handshake(self._sock, self._codec)
        except TransportError:
            self.close()
            raise

    def _connect(
        self, connect_timeout: float, io_timeout: Optional[float]
    ) -> socket.socket:
        deadline = time.monotonic() + connect_timeout
        last_error: Optional[OSError] = None
        while True:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
            except OSError as exc:
                last_error = exc
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"cannot connect to index server at "
                        f"{self.host}:{self.port} within {connect_timeout:.0f}s: "
                        f"{last_error}"
                    ) from exc
                time.sleep(0.2)
                continue
            sock.settimeout(io_timeout)
            for option in (socket.TCP_NODELAY,):
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, option, 1)
                except OSError:
                    pass  # transport still works without the latency tweak
            try:
                # Keepalive is the escape hatch for the deadline-free sync
                # barrier: a network partition eventually surfaces as an error
                # instead of hanging the worker forever.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            except OSError:
                pass
            return sock

    def _request(self, message, unbounded: bool = False):
        with self._lock:
            if unbounded:
                # The sync barrier's duration depends on the *slowest peer's*
                # hour, which this worker cannot bound; deadlock arbitration
                # belongs to the server (whose activity clock is refreshed by
                # every worker's heartbeats).  A dead server still surfaces
                # here as EOF or a keepalive reset, never a silent hang.
                self._sock.settimeout(None)
            try:
                reply = self._codec.request(self._sock, message)
            finally:
                if unbounded:
                    self._sock.settimeout(self._io_timeout)
        if isinstance(reply, tuple) and reply and reply[0] == protocol.ABORT:
            raise TransportError(f"index server aborted: {reply[1]}")
        return reply

    # ------------------------------------------------------ SyncTransport API

    def register(self, shard_id: Optional[int]):
        """Register with the server.

        With a concrete *shard_id* (the in-process TCP pool) the server just
        validates the claim and the return value is None.  With ``None`` the
        server assigns one of the campaign's shards and this returns
        ``(spec, sync_hours)`` for the client to run.
        """
        reply = self._request((protocol.REGISTER, shard_id))
        if reply[0] != protocol.REGISTERED:
            raise TransportError(f"unexpected registration reply {reply[0]!r}")
        spec, sync_hours = reply[1], tuple(reply[2])
        if shard_id is None:
            if spec is None:
                raise TransportError("server assigned no shard")
            return spec, sync_hours
        return None

    def sync(
        self,
        shard_id: int,
        hour: int,
        entries: List[IndexEntry],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> SyncBroadcast:
        message = (
            (protocol.SYNC, shard_id, hour, entries)
            if telemetry is None
            else (protocol.SYNC, shard_id, hour, entries, telemetry)
        )
        reply = self._request(message, unbounded=True)
        if reply[0] != protocol.BROADCAST:
            raise TransportError(f"unexpected sync reply {reply[0]!r}")
        return reply[1]

    def stats(self) -> Dict[str, Any]:
        """Fetch the server's stats payload (health + merged telemetry)."""
        reply = self._request((protocol.STATS,))
        if reply[0] != protocol.STATS_OK:
            raise TransportError(f"unexpected stats reply {reply[0]!r}")
        return reply[1]

    def report(self, report) -> None:
        reply = self._request((protocol.REPORT, report))
        if reply[0] != protocol.OK:
            raise TransportError(f"unexpected report reply {reply[0]!r}")

    def error(self, shard_id: int, text: str) -> None:
        self._request((protocol.ERROR, shard_id, text))

    def tick(self, shard_id: int) -> None:
        self._request((protocol.TICK, shard_id))

    def shutdown_server(self) -> None:
        """Send the SHUTDOWN verb; the server stops after acknowledging."""
        reply = self._request((protocol.SHUTDOWN,))
        if reply[0] != protocol.OK:
            raise TransportError(f"unexpected shutdown reply {reply[0]!r}")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def request_shutdown(
    host: str,
    port: int,
    connect_timeout: float = 10.0,
    auth_key: Optional[bytes] = None,
) -> None:
    """Ask a running index server to shut down (the SHUTDOWN verb)."""
    transport = RemoteSyncTransport(
        host,
        port,
        connect_timeout=connect_timeout,
        io_timeout=30.0,
        auth_key=auth_key,
    )
    try:
        transport.shutdown_server()
    finally:
        transport.close()


def fetch_stats(
    host: str,
    port: int,
    connect_timeout: float = 10.0,
    auth_key: Optional[bytes] = None,
) -> Dict[str, Any]:
    """Fetch a running index server's stats payload (the STATS verb)."""
    transport = RemoteSyncTransport(
        host,
        port,
        connect_timeout=connect_timeout,
        io_timeout=30.0,
        auth_key=auth_key,
    )
    try:
        return transport.stats()
    finally:
        transport.close()


def run_remote_client(
    host: str,
    port: int,
    connect_timeout: float = 60.0,
    io_timeout: float = 600.0,
    heartbeat_interval: float = 10.0,
    auth_key: Optional[bytes] = None,
    live_stats: bool = False,
):
    """Run one full remote worker against an index server.

    Connects, lets the server assign a shard, runs it with the shared worker
    body and a liveness heartbeat, uploads the report and returns it.  On
    failure the server is told (so the whole campaign fails fast) and the
    exception propagates to the caller.
    """
    from repro.core.parallel import run_shard_with_heartbeat

    transport = RemoteSyncTransport(
        host,
        port,
        connect_timeout=connect_timeout,
        io_timeout=io_timeout,
        auth_key=auth_key,
    )
    shard_id: Optional[int] = None
    try:
        assignment: Tuple = transport.register(None)
        spec, sync_hours = assignment
        shard_id = spec.shard_id
        report = run_shard_with_heartbeat(
            spec, sync_hours, transport, heartbeat_interval, live_stats=live_stats
        )
        transport.report(report)
        return report
    except BaseException:
        try:
            transport.error(
                -1 if shard_id is None else shard_id, traceback.format_exc()
            )
        except Exception as notify_error:
            # The failure notification could not reach the server; the
            # original exception still propagates below.
            print(
                f"failed to notify server of client failure: {notify_error}",
                file=sys.stderr,
            )
        raise
    finally:
        transport.close()
