"""Kill-and-restore tests for the index server's snapshot round log."""

import threading

import pytest

from repro.core import (
    CampaignConfig,
    build_shard_specs,
    finalize_parallel_result,
    run_shard_with_transport,
    sync_schedule,
)
from repro.distributed import protocol
from repro.distributed.client import RemoteSyncTransport, run_remote_client
from repro.distributed.protocol import SyncBroadcast
from repro.distributed.server import SNAPSHOT_FILENAME, IndexServer
from repro.errors import TransportError

FAST = CampaignConfig(
    dataset="shopping", dataset_rows=90, hours=3, queries_per_hour=6, seed=71
)

ROUND_ONE = {
    0: [([1.0, 0.0, 0.0], "A"), ([0.0, 1.0, 0.0], "B")],
    1: [([0.0, 0.0, 1.0], "C")],
}
ROUND_TWO = {0: [], 1: []}


def make_server(tmp_path, **overrides):
    defaults = dict(
        shards=build_shard_specs("tqs", FAST, 2),
        sync_hours=sync_schedule(FAST.hours, 1),
        round_timeout=60.0,
        snapshot_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return IndexServer(**defaults).start()


def complete_one_round(server, batches, hour=1):
    """Drive one sync barrier to completion via the server's own entry point.

    Returns each shard's reply: the broadcast of the round before *hour*.
    """
    results = {}

    def worker(shard_id):
        results[shard_id] = server._sync(shard_id, hour, batches[shard_id])

    with server._cond:
        server._registered.update(batches)
    threads = [threading.Thread(target=worker, args=(sid,)) for sid in batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(reply[0] == protocol.BROADCAST for reply in results.values())
    return {sid: reply[1] for sid, reply in results.items()}


class TestRoundLogRestore:
    def test_restart_replays_logged_rounds_bit_identically(self, tmp_path):
        server = make_server(tmp_path)
        try:
            complete_one_round(server, ROUND_ONE)
            # Round 1's broadcasts are delivered at the hour-2 syncs.
            first_broadcasts = complete_one_round(server, ROUND_TWO, hour=2)
        finally:
            server.stop()

        restarted = make_server(tmp_path)
        try:
            assert restarted.restored_rounds == 2
            assert restarted.stats_payload()["rounds_restored"] == 2
            # The central index already holds the logged entries.
            assert restarted.coordinator.index.contains_label("A")
            assert restarted.coordinator.index.contains_label("C")
            # Re-running shards get the *stored* broadcasts, not a re-merge.
            assert complete_one_round(restarted, ROUND_ONE) == {
                0: SyncBroadcast(), 1: SyncBroadcast()}
            replayed = complete_one_round(restarted, ROUND_TWO, hour=2)
            assert replayed == first_broadcasts
            assert replayed[1].entries == ROUND_ONE[0]
            assert restarted.failure is None
            # The replayed hours are now complete; index state must match a
            # server that ran the rounds live (one copy of each label).
            live = make_server(tmp_path / "live")
            try:
                complete_one_round(live, ROUND_ONE)
                complete_one_round(live, ROUND_TWO, hour=2)
                assert (
                    len(restarted.coordinator.index)
                    == len(live.coordinator.index)
                )
            finally:
                live.stop()
        finally:
            restarted.stop()

    def test_restore_divergence_fails_the_campaign(self, tmp_path):
        server = make_server(tmp_path)
        try:
            complete_one_round(server, ROUND_ONE)
        finally:
            server.stop()

        restarted = make_server(tmp_path)
        try:
            with restarted._cond:
                restarted._registered.update({0, 1})
            # Shard 0 ships one entry where the log recorded two: the restarted
            # campaign is not deterministic, which must fail loudly instead of
            # silently corrupting the merge.
            reply = restarted._sync(0, 1, ROUND_ONE[0][:1])
            assert reply[0] == protocol.ABORT
            assert "divergence" in restarted.failure
        finally:
            restarted.stop()

    def test_unrelated_campaign_starts_a_fresh_log(self, tmp_path):
        server = make_server(tmp_path)
        try:
            complete_one_round(server, ROUND_ONE)
        finally:
            server.stop()

        other = CampaignConfig(
            dataset="shopping", dataset_rows=90, hours=3, queries_per_hour=9, seed=71
        )
        restarted = make_server(tmp_path, shards=build_shard_specs("tqs", other, 2))
        try:
            assert restarted.restored_rounds == 0
        finally:
            restarted.stop()

    def test_torn_tail_record_is_shed_on_restart(self, tmp_path):
        server = make_server(tmp_path)
        try:
            complete_one_round(server, ROUND_ONE, hour=1)
            complete_one_round(
                server, {0: [([1.0, 1.0, 0.0], "D")], 1: []}, hour=2
            )
        finally:
            server.stop()

        path = tmp_path / SNAPSHOT_FILENAME
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final (hour-2) record

        restarted = make_server(tmp_path)
        try:
            # Hour 1 replays; the torn hour-2 record is dropped and that round
            # simply re-runs live — and gets logged again on completion.
            assert restarted.restored_rounds == 1
            rerun = complete_one_round(
                restarted, {0: [([1.0, 1.0, 0.0], "D")], 1: []}, hour=2
            )
            # The hour-2 syncs carry round 1's stored broadcast; round 2's
            # (the final round's) is held, never fetched, until completion.
            assert rerun[1].entries == ROUND_ONE[0]
            with restarted._cond:
                assert restarted._round_broadcasts[2][1].entries == [
                    ([1.0, 1.0, 0.0], "D")
                ]
        finally:
            restarted.stop()
        # The rewritten-and-appended log now restores both rounds.
        final = make_server(tmp_path)
        try:
            assert final.restored_rounds == 2
        finally:
            final.stop()

    def test_corrupt_header_is_a_typed_startup_error(self, tmp_path):
        server = make_server(tmp_path)
        server.stop()
        path = tmp_path / SNAPSHOT_FILENAME
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # scribble inside the header JSON
        path.write_bytes(bytes(data))
        with pytest.raises(TransportError, match="cannot restore snapshot"):
            make_server(tmp_path)


class _CrashAfterRoundOne:
    """A transport that dies between rounds, simulating a mid-campaign crash.

    The hour-2 sync receives round 1's broadcast — so the server's round-1
    record is durable, since it is logged before the broadcast is released —
    and then the worker dies as if its process was killed.
    """

    def __init__(self, inner):
        self._inner = inner
        self._syncs = 0

    def register(self, shard_id):
        return self._inner.register(shard_id)

    def sync(self, shard_id, hour, entries, telemetry=None):
        broadcast = self._inner.sync(shard_id, hour, entries, telemetry)
        self._syncs += 1
        if self._syncs == 2:
            raise TransportError("simulated worker crash after round 1")
        return broadcast

    def report(self, report):
        self._inner.report(report)

    def error(self, shard_id, text):
        self._inner.error(shard_id, text)

    def tick(self, shard_id):
        self._inner.tick(shard_id)

    def close(self):
        self._inner.close()


def run_full_clients(server):
    results = []
    errors = []

    def client():
        try:
            results.append(run_remote_client(server.host, server.port))
        except BaseException as exc:  # surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors
    assert server.wait(5.0) and server.failure is None
    return finalize_parallel_result(
        list(server.reports.values()),
        server.coordinator,
        workers=2,
        sync_rounds=len(server.sync_hours),
        elapsed_seconds=0.0,
    )


class TestKillAndRestoreCampaign:
    def test_restored_campaign_is_bit_identical_to_uninterrupted(self, tmp_path):
        """The acceptance bar: crash after round 1, restore, identical result."""
        shards = build_shard_specs("tqs", FAST, 2)
        sync_hours = sync_schedule(FAST.hours, 1)
        baseline_server = make_server(tmp_path / "baseline")
        try:
            baseline = run_full_clients(baseline_server)
        finally:
            baseline_server.stop()

        # Phase one: both workers crash once round 1's broadcast reached them.
        crashed = make_server(tmp_path / "snap")
        try:
            crash_errors = []

            def doomed_client(spec):
                transport = _CrashAfterRoundOne(
                    RemoteSyncTransport(crashed.host, crashed.port)
                )
                try:
                    transport.register(spec.shard_id)
                    run_shard_with_transport(spec, sync_hours, transport)
                except TransportError as exc:
                    crash_errors.append(exc)
                finally:
                    transport.close()

            threads = [
                threading.Thread(target=doomed_client, args=(spec,))
                for spec in shards
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert len(crash_errors) == 2
        finally:
            crashed.stop()

        # Phase two: a restarted server replays round 1 from the log and fresh
        # clients re-run the campaign from hour 0.
        restored_server = make_server(tmp_path / "snap")
        try:
            assert restored_server.restored_rounds >= 1
            restored = run_full_clients(restored_server)
        finally:
            restored_server.stop()

        assert restored.merged.samples == baseline.merged.samples
        assert restored.sync_stats == baseline.sync_stats
        assert restored.merged.bug_log is not None
        assert baseline.merged.bug_log is not None
        assert {
            (i.root_cause, i.query_canonical_label)
            for i in restored.merged.bug_log.incidents
        } == {
            (i.root_cause, i.query_canonical_label)
            for i in baseline.merged.bug_log.incidents
        }
