"""Tests for the distributed KQE index server and the TCP sync transport."""

import hashlib
import json
import socket
import threading
from dataclasses import asdict, replace

import pytest

from repro.analysis.reporting import parallel_result_to_dict
from repro.core import (
    CampaignConfig,
    CampaignSpec,
    ParallelCampaignConfig,
    build_shard_specs,
    finalize_parallel_result,
    run_campaign,
    run_parallel_shards,
    sync_schedule,
)
from repro.core.campaign import HourlySample
from repro.core.parallel import WorkerReport
from repro.distributed import cli as distributed_cli, protocol, wire
from repro.distributed.cli import _diff_summaries, main as distributed_main
from repro.distributed.client import request_shutdown, run_remote_client
from repro.distributed.coordinator import CentralCoordinator
from repro.distributed.protocol import SyncBroadcast
from repro.distributed.server import IndexServer
from repro.errors import CampaignError, TransportError

FAST_SPEC = CampaignSpec(
    dataset="shopping", dataset_rows=90, hours=3, queries_per_hour=6, seed=71
)
FAST = FAST_SPEC.campaign_config()
# A longer campaign for the payload-reduction assertions: more rounds and a
# bigger per-hour budget mean more repeated join skeletons to suppress.
LONG = CampaignConfig(
    dataset="shopping", dataset_rows=90, hours=4, queries_per_hour=10, seed=23
)


#: sha256 of the canonical JSON of ``parallel_result_to_dict(outcome)["summary"]``
#: for ``run_pool(2)`` and for the 2-worker widened-grammar differential
#: campaign of ``TestVerifyLocalCLI``, recorded from the multiprocessing-queue
#: pool that the index-server pool replaced.  Both pools give these verdicts.
TQS_POOL2_SUMMARY = "4bf5d526902ea6cc3f0b9072dcfa200c943edcba51c7917d0f3a5f8409042bf4"
WIDENED_POOL2_SUMMARY = (
    "88d7426a0b838356b73d6cd4d72c96d2410560accc5622be61156b38e7237a2d"
)


def summary_digest(summary):
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def pool_config(workers, **overrides):
    defaults = dict(workers=workers, sync_interval=1, worker_timeout=120.0)
    defaults.update(overrides)
    return ParallelCampaignConfig(**defaults)


def run_pool(workers, config=FAST, kind="tqs", **overrides):
    shards = build_shard_specs(kind, config, workers)
    return run_parallel_shards(shards, pool_config(workers, **overrides))


def bug_keys(result):
    assert result.bug_log is not None
    return {
        (incident.root_cause, incident.query_canonical_label)
        for incident in result.bug_log.incidents
    }


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(FAST_SPEC)


@pytest.fixture(scope="module")
def pool2():
    return run_pool(2)


class TestNoveltyPruning:
    def entry(self, label, value=1.0):
        return ([value, 0.0], label)

    def test_worker_never_receives_labels_it_already_holds(self):
        coordinator = CentralCoordinator(prune=True)
        # Round 1: worker 0 submits L1; worker 1 submits L2.  Both labels are
        # novel to the other side, so both entries cross.
        first = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L2")]}
        )
        assert [label for _, label in first[0].entries] == ["L2"]
        assert [label for _, label in first[1].entries] == ["L1"]
        assert first[0].suppressed == 0 and first[1].suppressed == 0
        # Round 2: worker 1 rediscovers L1 (which worker 0 submitted itself)
        # and L2 (which worker 0 received in round 1); both must be withheld
        # from worker 0, and the novel L3 must still cross.
        second = coordinator.complete_round(
            {
                0: [],
                1: [self.entry("L1"), self.entry("L2"), self.entry("L3")],
            }
        )
        assert [label for _, label in second[0].entries] == ["L3"]
        assert second[0].suppressed == 2
        assert second[1].entries == [] and second[1].suppressed == 0

    def test_duplicate_labels_within_one_round_collapse(self):
        coordinator = CentralCoordinator(prune=True)
        broadcasts = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L1")], 2: []}
        )
        # Worker 2 hears L1 once (from the lowest shard id); the copy is
        # suppressed.  Workers 0 and 1 already hold L1 themselves.
        assert [label for _, label in broadcasts[2].entries] == ["L1"]
        assert broadcasts[2].suppressed == 1
        assert broadcasts[0].entries == [] and broadcasts[0].suppressed == 1
        assert broadcasts[1].entries == [] and broadcasts[1].suppressed == 1

    def deliver_all(self, coordinator, broadcasts):
        for broadcast in broadcasts.values():
            coordinator.deliver(broadcast)

    def test_unpruned_coordinator_forwards_everything(self):
        coordinator = CentralCoordinator(prune=False)
        first = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L1")]}
        )
        self.deliver_all(coordinator, first)
        broadcasts = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L1")]}
        )
        self.deliver_all(coordinator, broadcasts)
        assert [label for _, label in broadcasts[0].entries] == ["L1"]
        assert coordinator.broadcast_entries_suppressed == 0
        assert coordinator.broadcast_entries_sent == 4

    def test_totals_track_every_round(self):
        coordinator = CentralCoordinator(prune=True)
        broadcasts = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L1")]}
        )
        # The totals count delivered broadcasts only.
        assert coordinator.broadcast_entries_suppressed == 0
        self.deliver_all(coordinator, broadcasts)
        assert coordinator.broadcast_entries_sent == 0
        assert coordinator.broadcast_entries_suppressed == 2
        assert len(coordinator.index) == 2
        assert coordinator.index.distinct_canonical_labels() == 1


class TestTCPDeterminism:
    def test_one_client_tcp_run_equals_serial_runner(self, serial_result):
        """The determinism contract: 1-client TCP == the serial loop, bitwise."""
        tcp = run_pool(1)
        assert tcp.merged.samples == serial_result.samples
        assert bug_keys(tcp.merged) == bug_keys(serial_result)

    def test_two_client_tcp_run_equals_in_process_pool(self, pool2):
        """The 2-worker pool gives the queue pool's pinned summary, and that
        summary holds every field the two pools were once compared on."""
        summary = parallel_result_to_dict(pool2)["summary"]
        assert summary_digest(summary) == TQS_POOL2_SUMMARY
        assert summary["merged"]["samples"] == [
            asdict(sample) for sample in pool2.merged.samples
        ]
        assert {
            (frozenset(bug_ids), label) for bug_ids, label in summary["merged"]["bug_keys"]
        } == {(frozenset(cause), label) for cause, label in bug_keys(pool2.merged)}
        assert summary["central_index_size"] == pool2.central_index_size
        assert summary["central_distinct_labels"] == pool2.central_distinct_labels
        assert [
            (
                shard["shard_id"],
                shard["entries_shipped"],
                shard["broadcast_entries_received"],
                shard["broadcast_entries_suppressed"],
                tuple(shard["hourly_budgets"]),
            )
            for shard in summary["shards"]
        ] == [
            (
                stats.shard_id,
                stats.entries_shipped,
                stats.broadcast_entries_received,
                stats.broadcast_entries_suppressed,
                stats.hourly_budgets,
            )
            for stats in pool2.sync_stats
        ]
        assert summary["broadcast_entries_sent"] == pool2.broadcast_entries_sent
        assert (
            summary["broadcast_entries_suppressed"]
            == pool2.broadcast_entries_suppressed
        )

    def test_summary_dicts_identical_across_transports(self, pool2):
        tcp = parallel_result_to_dict(pool2)
        assert summary_digest(tcp["summary"]) == TQS_POOL2_SUMMARY
        # The JSON artifact survives a serialization round trip unchanged.
        rehydrated = json.loads(json.dumps(tcp))
        assert summary_digest(rehydrated["summary"]) == TQS_POOL2_SUMMARY

    def test_diff_summaries_pinpoints_mismatches(self, pool2):
        summary = parallel_result_to_dict(pool2)["summary"]
        perturbed = json.loads(json.dumps(summary))
        perturbed["merged"]["samples"][-1]["bug_count"] += 1
        lines = _diff_summaries(summary, perturbed)
        assert len(lines) == 1
        assert "bug_count" in lines[0]

    def test_unknown_transport_rejected(self):
        shards = build_shard_specs("tqs", FAST, 2)
        with pytest.raises(CampaignError):
            run_parallel_shards(shards, pool_config(2, transport="carrier-pigeon"))
        # The multiprocessing-queue transport is gone.
        with pytest.raises(CampaignError, match="unknown transport 'local'"):
            pool_config(2, transport="local")


class TestPayloadReduction:
    def test_pruning_reduces_broadcast_volume_on_a_long_campaign(self):
        pruned = run_pool(2, LONG)
        unpruned = run_pool(2, LONG, prune_broadcasts=False)
        assert pruned.broadcast_entries_suppressed > 0
        assert pruned.broadcast_entries_sent < unpruned.broadcast_entries_sent
        assert unpruned.broadcast_entries_suppressed == 0
        # Suppressed-entry counts reconcile: what the workers report adds up
        # to what the coordinator counted, and likewise for delivered entries.
        assert (
            sum(s.broadcast_entries_suppressed for s in pruned.sync_stats)
            == pruned.broadcast_entries_suppressed
        )
        assert (
            sum(s.broadcast_entries_received for s in pruned.sync_stats)
            == pruned.broadcast_entries_sent
        )
        # Pruning withholds duplicate labels, never distinct structures: the
        # central index sees every generated query either way.
        assert pruned.central_index_size == pruned.merged.final.queries_generated

    def test_worker_reports_surface_suppressed_counts(self, pool2):
        assert (
            sum(s.broadcast_entries_suppressed for s in pool2.sync_stats)
            == pool2.broadcast_entries_suppressed
        )
        assert all(s.entries_shipped > 0 for s in pool2.sync_stats)


class TestIndexServerProtocol:
    def test_server_assigns_shards_to_bare_clients(self, pool2):
        """CLI-style clients (no shard preassignment) match the local pool."""
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(
            shards=shards,
            sync_hours=sync_schedule(FAST.hours, 1),
            round_timeout=120.0,
        )
        server.start()
        try:
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
            outcome = finalize_parallel_result(
                list(server.reports.values()),
                server.coordinator,
                workers=2,
                sync_rounds=len(server.sync_hours),
                elapsed_seconds=0.0,
            )
        finally:
            server.stop()
        assert outcome.merged.samples == pool2.merged.samples
        assert bug_keys(outcome.merged) == bug_keys(pool2.merged)

    def test_extra_client_is_turned_away_without_killing_the_campaign(self):
        shards = build_shard_specs("tqs", FAST, 1)
        server = IndexServer(shards=shards, sync_hours=(), round_timeout=30.0)
        server.start()
        try:
            from repro.distributed.client import RemoteSyncTransport

            first = RemoteSyncTransport(server.host, server.port)
            assert first.register(None) is not None
            second = RemoteSyncTransport(server.host, server.port)
            with pytest.raises(TransportError):
                second.register(None)
            # The turned-away client reports an error on its way out (that is
            # what run_remote_client does); a healthy campaign must survive it.
            second.error(-1, "rejected registration")
            assert server.failure is None
            first.close()
            second.close()
        finally:
            server.stop()

    def test_disconnect_after_reporting_is_harmless(self):
        """An abrupt close after a delivered report must not fail the run."""
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(
            shards=shards,
            sync_hours=sync_schedule(FAST.hours, 1),
            round_timeout=30.0,
        )
        server.start()
        try:
            # Shard 0 reported already; its connection breaking afterwards is
            # routine (process exit, NAT reset) while shard 1 is still running.
            server.reports[0] = object()
            server.connection_broken([0], "connection reset by peer")
            assert server.failure is None
            server.connection_closed([0])
            assert server.failure is None
            # An unreported shard's broken connection still fails the run.
            server.connection_broken([1], "connection reset by peer")
            assert server.failure is not None
        finally:
            server.stop()

    def test_completed_rounds_are_freed(self):
        """Long campaigns must not accumulate every round's payload in RAM.

        Round 1's broadcasts are fetched at the hour-2 syncs and freed then;
        the final round's are never fetched and are freed when the campaign
        completes, so a completed server holds no round batches or
        broadcasts.
        """
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(shards=shards, sync_hours=(1, 2), round_timeout=30.0)
        try:
            server._registered.update({0, 1})
            batches = {0: [([1.0, 0.0], "L0")], 1: [([0.0, 1.0], "L1")]}
            first = sync_round(server, 1, batches)
            assert all(reply[0] == protocol.BROADCAST for reply in first.values())
            assert server._round_batches == {}
            assert set(server._round_broadcasts) == {1}
            second = sync_round(server, 2, {0: [], 1: []})
            assert second[0] == (
                protocol.BROADCAST,
                SyncBroadcast(entries=[([0.0, 1.0], "L1")]),
            )
            assert set(server._round_broadcasts) == {2}
            for shard_id in (0, 1):
                assert server._report(minimal_report(shard_id)) == (protocol.OK,)
            assert server.completed
            assert server._round_batches == {} and server._round_broadcasts == {}
            assert server._round_pending_fetch == {}
            # Re-syncing a completed hour is a protocol violation, not a hang.
            assert server._sync(0, 1, [])[0] == protocol.ABORT
        finally:
            server._server.server_close()

    def test_sync_after_completion_aborts_with_its_reason(self):
        """A completed campaign keeps no failure, yet a late SYNC's ABORT still
        names the violation, and the client can decode it."""
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(shards=shards, sync_hours=(1,), round_timeout=30.0)
        try:
            server._registered.update({0, 1})
            sync_round(server, 1, {0: [], 1: []})
            for shard_id in (0, 1):
                assert server._report(minimal_report(shard_id)) == (protocol.OK,)
            assert server.completed and server.failure is None
            reply = server._sync(0, 1, [])
            verb, reason = wire.decode_message(
                json.loads(json.dumps(wire.encode_message(reply)))
            )
            assert verb == protocol.ABORT
            assert isinstance(reason, str)
            assert reason == (
                "protocol violation: sync at unscheduled or already completed hour 1"
            )
            assert server.failure is None
        finally:
            server._server.server_close()

    def test_shutdown_verb_stops_an_incomplete_campaign(self):
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(
            shards=shards,
            sync_hours=sync_schedule(FAST.hours, 1),
            round_timeout=30.0,
        )
        server.start()
        try:
            request_shutdown(server.host, server.port)
            assert server.wait(10.0)
            assert server.failure is not None
            assert "shutdown" in server.failure
        finally:
            server.stop()

    def test_worker_disconnect_fails_the_campaign(self):
        shards = build_shard_specs("tqs", FAST, 2)
        server = IndexServer(
            shards=shards,
            sync_hours=sync_schedule(FAST.hours, 1),
            round_timeout=30.0,
        )
        server.start()
        try:
            from repro.distributed.client import RemoteSyncTransport

            transport = RemoteSyncTransport(server.host, server.port)
            transport.register(0)
            transport.close()
            assert server.wait(10.0)
            assert server.failure is not None
            assert "disconnected" in server.failure
        finally:
            server.stop()

    def test_stop_wakes_an_idle_server_at_once(self):
        # The serving loop polls every 0.1 s; stop() must not wait that out.
        import statistics
        import time

        shards = build_shard_specs("tqs", FAST, 2)
        durations = []
        for _ in range(10):
            server = IndexServer(shards=shards, sync_hours=sync_schedule(FAST.hours, 1))
            server.start()
            started = time.perf_counter()
            server.stop()
            durations.append(time.perf_counter() - started)
        assert statistics.median(durations) < 0.020, durations
        # A stopped server no longer accepts connections.
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=1.0)


def sync_round(server, hour, batches):
    """Every shard of *batches* syncs *hour* on its own thread; the replies."""
    results = {}

    def worker(shard_id):
        results[shard_id] = server._sync(shard_id, hour, batches[shard_id])

    threads = [threading.Thread(target=worker, args=(sid,)) for sid in batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    return results


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


class TestStaleSynchronousRounds:
    """A sync ships its hour's batch and returns the previous round's merge."""

    def make_server(self):
        server = IndexServer(
            shards=build_shard_specs("tqs", FAST, 2),
            sync_hours=(1, 2),
            round_timeout=30.0,
        )
        server._registered.update({0, 1})
        return server

    def test_first_sync_returns_an_empty_broadcast_without_waiting(self):
        server = self.make_server()
        try:
            reply = sync_round(server, 1, {0: [([1.0, 0.0], "L0")]})[0]
            assert reply == (protocol.BROADCAST, SyncBroadcast())
            # Shard 1 has not shipped hour 1, so the round is still open.
            assert set(server._round_batches) == {1}
            assert server._round_broadcasts == {}
        finally:
            server._server.server_close()

    def test_second_sync_waits_for_the_peers_batch_of_the_previous_hour(self):
        server = self.make_server()
        try:
            sync_round(server, 1, {0: [([1.0, 0.0], "L0")]})
            results = {}

            def ship_hour_two():
                results["reply"] = server._sync(0, 2, [([1.0, 1.0], "L2")])

            waiter = threading.Thread(target=ship_hour_two)
            waiter.start()
            waiter.join(timeout=0.5)
            assert waiter.is_alive(), "shard 0 ran two rounds ahead of shard 1"
            peer = [([0.0, 1.0], "L1")]
            reply = sync_round(server, 1, {1: peer})[1]
            assert reply == (protocol.BROADCAST, SyncBroadcast())
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            verb, broadcast = results["reply"]
            assert verb == protocol.BROADCAST
            assert broadcast.entries == peer and broadcast.suppressed == 0
            # The hour-2 batch is in its own, still open round.
            assert server._round_batches == {2: {0: [([1.0, 1.0], "L2")]}}
        finally:
            server._server.server_close()

    def test_repeated_two_client_tcp_runs_agree_with_the_queue_pool(self, pool2):
        reruns = [run_pool(2) for _ in range(2)]
        for run in [pool2] + reruns:
            summary = parallel_result_to_dict(run)["summary"]
            assert summary_digest(summary) == TQS_POOL2_SUMMARY


class TestVerifyLocalCLI:
    def verify(self, tmp_path, outcome, **campaign):
        """Record *outcome* with a serve-style campaign echo; run verify-local."""
        from repro.analysis.reporting import write_parallel_result_json

        echo = {
            "kind": "tqs",
            "workers": 2,
            "dataset": FAST.dataset,
            "dataset_rows": FAST.dataset_rows,
            "hours": FAST.hours,
            "queries_per_hour": FAST.queries_per_hour,
            "seed": FAST.seed,
            "sync_interval": 1,
            "dialect": "SimMySQL",
            "baseline": "NoRec",
            "backend": "sqlite",
            "prune": True,
        }
        echo.update(campaign)
        path = tmp_path / "campaign.json"
        write_parallel_result_json(outcome, str(path), campaign=echo)
        return distributed_main(
            ["verify-local", "--json", str(path), "--round-timeout", "120"]
        )

    def test_verify_local_accepts_a_recorded_tcp_campaign(self, tmp_path):
        outcome = run_pool(2)
        assert self.verify(tmp_path, outcome) == 0

    def test_verify_local_reruns_the_recorded_grammar_probabilities(self, tmp_path):
        """A widened-grammar campaign verifies only if its probabilities are read."""
        probabilities = dict(
            setop_probability=0.4,
            scalar_subquery_probability=0.3,
            cte_probability=0.25,
        )
        outcome = run_pool(2, replace(FAST, **probabilities), kind="differential")
        summary = parallel_result_to_dict(outcome)["summary"]
        assert summary_digest(summary) == WIDENED_POOL2_SUMMARY
        assert self.verify(tmp_path, outcome, kind="differential", **probabilities) == 0

    def test_serve_accepts_the_pool_campaign_flags(self):
        """Both CLIs declare one flag set: serve parses the grammar flags too."""
        argv = (
            "serve --kind differential --workers 1 --hours 1 --serve-timeout 0.2"
            " --setop-probability 0.4 --scalar-subquery-probability 0.3"
            " --cte-probability 0.25"
        ).split()
        # No client ever connects, so the campaign times out: exit code 1.
        assert distributed_main(argv) == 1
        with pytest.raises(SystemExit):
            distributed_main(["serve", "--budget-policy", "lottery"])


class TestRunCLI:
    def test_run_prints_the_pinned_two_worker_campaign(self, monkeypatch, capsys):
        """``run`` hosts the FAST 2-worker campaign and prints its merged series."""
        outcomes = []

        def recording_pool(shards, parallel):
            outcomes.append(run_parallel_shards(shards, parallel))
            return outcomes[-1]

        monkeypatch.setattr(distributed_cli, "run_parallel_shards", recording_pool)
        argv = ["run", "--workers", "2", "--round-timeout", "120"]
        argv += ["--dataset", FAST.dataset, "--dataset-rows", str(FAST.dataset_rows)]
        argv += ["--hours", str(FAST.hours), "--seed", str(FAST.seed)]
        argv += ["--queries-per-hour", str(FAST.queries_per_hour)]
        assert distributed_main(argv) == 0
        (outcome,) = outcomes
        summary = parallel_result_to_dict(outcome)["summary"]
        assert summary_digest(summary) == TQS_POOL2_SUMMARY
        out = capsys.readouterr().out
        series = out.split("Merged per-hour series (TQS vs SimMySQL)\n")[1]
        last_row = series.split("\n\n")[0].splitlines()[-1]
        final = summary["merged"]["samples"][-1]
        columns = ["hour", "queries_generated", "isomorphic_sets"]
        columns += ["bug_count", "bug_type_count", "generations_rejected"]
        cells = [cell.strip() for cell in last_row.split("|")]
        assert cells == [str(final[column]) for column in columns]
        assert outcome.merged.bug_log.summary() in out
