"""Fault-injection tests for the distributed index server.

Uses the harness in :mod:`repro.distributed.testing` to misbehave on
schedule — tampered MACs, truncated frames, clients dying mid-SYNC, clients
that register and then stall — and asserts the server's contracts: it never
crashes on malformed input, a sync barrier never deadlocks, and with
``evict_dead_clients`` the survivors finish the campaign with the dead
shard's budget redistributed (total conserved).
"""

import json
import threading
import time

import pytest

from repro.core import CampaignConfig
from repro.core.campaign import HourlySample
from repro.core.parallel import WorkerReport, build_shard_specs, sync_schedule
from repro.distributed import protocol
from repro.distributed.client import RemoteSyncTransport, run_remote_client
from repro.distributed.protocol import SyncBroadcast
from repro.distributed.server import IndexServer
from repro.distributed.testing import (
    FaultyProxy,
    ScriptedClient,
    flip_byte,
    fuzz_server,
    tamper_mac,
    truncate_frame,
)
from repro.errors import TransportError

KEY = b"fault-injection-test-key"

FAST = CampaignConfig(
    dataset="shopping", dataset_rows=80, hours=3, queries_per_hour=6, seed=29
)


def make_server(workers=2, **overrides):
    options = dict(
        shards=build_shard_specs("tqs", FAST, workers),
        sync_hours=sync_schedule(FAST.hours, 1),
        round_timeout=60.0,
        auth_key=KEY,
        evict_dead_clients=True,
    )
    options.update(overrides)
    return IndexServer(**options).start()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def minimal_report(shard_id):
    return WorkerReport(
        shard_id=shard_id,
        tool="T",
        dbms="D",
        dataset="ds",
        samples=[HourlySample(1, 0, 0, 0, 0, 0, 0)],
        hourly_new_labels=[[]],
        hourly_incidents=[[]],
    )


class TestHarnessPrimitives:
    def test_flip_byte_changes_exactly_one_byte(self):
        data = bytes(range(16))
        mangled = flip_byte(data, 5)
        assert len(mangled) == len(data)
        assert [i for i in range(16) if mangled[i] != data[i]] == [5]

    def test_tamper_mac_hits_the_authentication_tag(self):
        codec = protocol.JsonFrameCodec(KEY)
        frame = codec.encode((protocol.OK,))
        mangled = tamper_mac(frame)
        tag_start = len(protocol.MAGIC) + 4
        tag_end = tag_start + protocol.MAC_BYTES
        assert frame[:tag_start] == mangled[:tag_start]
        assert frame[tag_start:tag_end] != mangled[tag_start:tag_end]
        assert frame[tag_end:] == mangled[tag_end:]

    def test_truncate_frame_keeps_a_prefix(self):
        assert truncate_frame(b"abcdef", 3) == b"abc"


class TestMalformedInput:
    def test_mac_tampering_is_rejected_and_server_survives(self):
        server = make_server(workers=1)
        proxy = FaultyProxy(
            server.host,
            server.port,
            plan=lambda index, frame: ("corrupt", len(protocol.MAGIC) + 4),
        )
        try:
            with pytest.raises(TransportError, match="authentication|rejected"):
                RemoteSyncTransport(proxy.host, proxy.port, auth_key=KEY)
            assert server.frames_rejected >= 1
            assert server.failure is None
            # A direct, untampered client still gets in.
            transport = RemoteSyncTransport(server.host, server.port,
                                            auth_key=KEY)
            assert transport.register(0) is None
            transport.close()
        finally:
            proxy.close()
            server.stop()

    def test_truncated_frame_closes_connection_server_keeps_serving(self):
        server = make_server(workers=1)
        proxy = FaultyProxy(
            server.host,
            server.port,
            # Frame 0 is the HELLO, frame 1 the REGISTER; cut the latter.
            plan=lambda index, frame: (
                ("truncate", 9) if index == 1 else ("pass",)
            ),
        )
        try:
            client = ScriptedClient(proxy.host, proxy.port, auth_key=KEY)
            client.send((protocol.REGISTER, 0))
            with pytest.raises(TransportError):
                client.recv()
            client.close()
            assert server.failure is None
            assert wait_until(lambda: server.frames_rejected >= 1)
            transport = RemoteSyncTransport(server.host, server.port,
                                            auth_key=KEY)
            assert transport.register(0) is None
            transport.close()
        finally:
            proxy.close()
            server.stop()

    def test_fuzz_leaves_a_live_campaign_unharmed(self):
        server = make_server(workers=1)
        try:
            stats = fuzz_server(server.host, server.port, frames=30, seed=7,
                                auth_key=KEY)
            assert sum(stats.values()) == 30
            assert server.frames_rejected >= 30
            assert server.failure is None
            report = run_remote_client(server.host, server.port, auth_key=KEY)
            assert server.wait(30.0)
            assert server.failure is None
            assert report.samples[-1].queries_generated > 0
        finally:
            server.stop()


class TestBarrierLiveness:
    def test_client_killed_mid_sync_releases_the_barrier(self):
        """The survivor finishes the round and the campaign alone."""
        server = make_server(workers=2)
        try:
            doomed = ScriptedClient(server.host, server.port, auth_key=KEY)
            assert doomed.request((protocol.REGISTER, 0))[0] == (
                protocol.REGISTERED
            )
            # Ship the hour-1 batch, then die without fetching the broadcast.
            # The vector must live in the real embedding space: the survivor
            # folds broadcast entries into its own KQE index.
            fake_entry = ([1.0] + [0.0] * 63, "doomed-label")
            doomed.send((protocol.SYNC, 0, 1, [fake_entry]))
            doomed.close()
            # The first sync's reply is immediate (there is no previous
            # round), so the server notices the closed connection at once;
            # the survivor starts after the eviction, deterministically.
            assert wait_until(lambda: set(server.evicted) == {0})

            survivor_report = {}

            def survivor():
                survivor_report["report"] = run_remote_client(
                    server.host, server.port, auth_key=KEY
                )

            thread = threading.Thread(target=survivor)
            thread.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert server.wait(10.0)
            assert server.failure is None
            assert set(server.reports) == {1}
            assert set(server.evicted) == {0}
            # The dead shard's per-hour budget moved to the survivor: 3+3
            # becomes 6, conserved.  Round 1's broadcast carries it, and the
            # survivor fetches that at its hour-2 sync.
            assert server.coordinator.budgets == {1: FAST.queries_per_hour}
            report = survivor_report["report"]
            assert report.hourly_budgets == [3, 3, 6]
        finally:
            server.stop()

    def test_register_but_never_sync_is_evicted_despite_ticks(self):
        """Regression: a wedged-but-heartbeating client used to park the
        barrier forever; now it is evicted and its budget redistributed."""
        server = make_server(workers=2, round_timeout=3.0, sync_hours=(1, 2))
        try:
            staller = ScriptedClient(server.host, server.port, auth_key=KEY)
            assert staller.request((protocol.REGISTER, 0))[0] == (
                protocol.REGISTERED
            )
            stop_ticking = threading.Event()

            def keep_ticking():
                while not stop_ticking.wait(0.3):
                    try:
                        staller.request((protocol.TICK, 0))
                    except TransportError:
                        return

            ticker = threading.Thread(target=keep_ticking, daemon=True)
            ticker.start()

            survivor = ScriptedClient(server.host, server.port, auth_key=KEY)
            assert survivor.request((protocol.REGISTER, 1))[0] == (
                protocol.REGISTERED
            )
            start = time.monotonic()
            # The first sync returns at once; the second waits on round 1,
            # which the staller never joins, and carries round 1's merge.
            assert survivor.request(
                (protocol.SYNC, 1, 1, [([0.0, 1.0], "survivor-label")])
            ) == (protocol.BROADCAST, SyncBroadcast())
            reply = survivor.request((protocol.SYNC, 1, 2, []))
            waited = time.monotonic() - start
            assert reply[0] == protocol.BROADCAST
            broadcast = reply[1]
            # The barrier released without the staller, well before forever.
            assert waited < 30.0
            assert broadcast.entries == []
            # Budget conservation across the eviction: the survivor now owns
            # the whole per-hour budget.
            assert broadcast.next_budget == FAST.queries_per_hour
            assert set(server.evicted) == {0}
            assert "hour 1" in server.evicted[0]
            assert survivor.request(
                (protocol.REPORT, minimal_report(1))
            ) == (protocol.OK,)
            assert server.wait(10.0)
            assert server.failure is None
            stop_ticking.set()
            staller.close()
            survivor.close()
        finally:
            server.stop()

    def test_without_eviction_the_stall_fails_fast_instead(self):
        """The liveness fix alone: no eviction, but no indefinite stall."""
        server = make_server(
            workers=2,
            round_timeout=2.0,
            sync_hours=(1, 2),
            evict_dead_clients=False,
        )
        try:
            staller = ScriptedClient(server.host, server.port, auth_key=KEY)
            staller.request((protocol.REGISTER, 0))
            survivor = ScriptedClient(server.host, server.port, auth_key=KEY)
            survivor.request((protocol.REGISTER, 1))
            assert survivor.request((protocol.SYNC, 1, 1, [([1.0], "L")]))[0] == (
                protocol.BROADCAST
            )
            reply = survivor.request((protocol.SYNC, 1, 2, []))
            assert reply[0] == protocol.ABORT
            assert "stalled" in reply[1] or "dead" in reply[1]
            assert server.failure is not None
            assert "[0]" in server.failure
            staller.close()
            survivor.close()
        finally:
            server.stop()

    def test_final_round_deadline_holds_with_no_peer_waiting(self):
        """No sync waits on the final round, yet a shard that never ships it
        is still evicted by the round deadline, and the campaign completes."""
        server = make_server(workers=2, round_timeout=2.0, sync_hours=(1,))
        try:
            staller = ScriptedClient(server.host, server.port, auth_key=KEY)
            staller.request((protocol.REGISTER, 0))
            survivor = ScriptedClient(server.host, server.port, auth_key=KEY)
            survivor.request((protocol.REGISTER, 1))
            assert survivor.request((protocol.SYNC, 1, 1, [([1.0], "L")])) == (
                protocol.BROADCAST, SyncBroadcast())
            assert survivor.request(
                (protocol.REPORT, minimal_report(1))
            ) == (protocol.OK,)
            assert server.wait(30.0)
            assert server.failure is None
            assert set(server.evicted) == {0}
            assert "hour 1" in server.evicted[0]
            staller.close()
            survivor.close()
        finally:
            server.stop()

    def test_all_clients_dead_fails_rather_than_hangs(self):
        server = make_server(workers=2, sync_hours=(1,))
        try:
            for shard_id in (0, 1):
                client = ScriptedClient(server.host, server.port, auth_key=KEY)
                client.request((protocol.REGISTER, shard_id))
                client.close()
            assert server.wait(30.0)
            assert server.failure is not None
            assert "evicted" in server.failure
        finally:
            server.stop()


class TestEvictionArtifact:
    def test_verify_local_refuses_artifacts_with_evictions(self, tmp_path, capsys):
        """An evicted-client campaign is not reproducible by a healthy pool;
        verify-local must say so instead of reporting a determinism break."""
        from repro.distributed.cli import main as distributed_main

        path = tmp_path / "campaign.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "campaign": {"evicted": {"0": "no sync at hour 1"}},
                    "summary": {},
                },
                handle,
            )
        rc = distributed_main(["verify-local", "--json", str(path)])
        assert rc == 2
        assert "evicted" in capsys.readouterr().err


class TestDelayTolerance:
    def test_delayed_frames_do_not_break_the_campaign(self):
        server = make_server(workers=1)
        proxy = FaultyProxy(
            server.host,
            server.port,
            plan=lambda index, frame: (
                ("delay", 0.3) if index in (2, 3) else ("pass",)
            ),
        )
        try:
            report = run_remote_client(proxy.host, proxy.port, auth_key=KEY)
            assert server.wait(30.0)
            assert server.failure is None
            assert report.samples[-1].queries_generated > 0
        finally:
            proxy.close()
            server.stop()


def _proxy_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("faulty-proxy-")]


class TestProxyLifecycle:
    def test_close_ends_every_proxy_thread(self):
        """A thread blocked in accept() or in a pump's recv() would otherwise
        outlive the proxy, and a later test would run beside it."""
        server = make_server(workers=1)
        proxy = FaultyProxy(server.host, server.port)
        try:
            transport = RemoteSyncTransport(proxy.host, proxy.port, auth_key=KEY)
            assert transport.register(0) is None
            names = {thread.name for thread in _proxy_threads()}
            assert names == {"faulty-proxy-accept", "faulty-proxy-c2s",
                             "faulty-proxy-s2c"}
            proxy.close()
            assert _proxy_threads() == []
            transport.close()
        finally:
            proxy.close()
            server.stop()

    def test_close_of_an_idle_proxy_ends_its_accept_thread(self):
        proxy = FaultyProxy("127.0.0.1", 9)
        proxy.close()
        assert _proxy_threads() == []
