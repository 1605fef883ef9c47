"""Tests for the campaign telemetry subsystem (``repro.obs``).

Covers the registry/snapshot semantics (merge algebra, histogram bucket
edges), the wire round-trip of snapshots through the wire protocol, the STATS verb
against a live authenticated index server, Prometheus exposition, and — most
importantly — the regression contract that telemetry-on and telemetry-off
campaigns produce bit-identical verdicts.
"""

import json
import socket
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    CampaignSpec,
    ParallelCampaignConfig,
    build_shard_specs,
    run_campaign,
    run_parallel_shards,
    sync_schedule,
)
from repro.distributed import wire
from repro.distributed.client import fetch_stats
from repro.distributed.server import IndexServer
from repro.errors import ProtocolError, TelemetryError
from repro.obs import (
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    render_prometheus,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test starts from an empty process registry, telemetry enabled."""
    previous = obs.set_enabled(True)
    obs.reset_registry()
    yield
    obs.reset_registry()
    obs.set_enabled(previous)


# ------------------------------------------------------------------- registry


class TestRegistry:
    def test_counter_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        registry.counter("x", b=2, a=1).inc(2)
        assert registry.snapshot().counter_value("x", a=1, b=2) == 3

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("x").inc(-1)

    def test_gauge_set_and_max(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        registry.gauge("g").max(3.0)
        assert registry.snapshot().gauges["g"] == 5.0
        registry.gauge("g").max(9.0)
        assert registry.snapshot().gauges["g"] == 9.0

    def test_histogram_bucket_edges_use_le_semantics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (1.0, 1.5, 2.0, 2.5, 0.0):
            hist.observe(value)
        state = registry.snapshot().histograms["h"]
        # le-semantics: 1.0 and 0.0 land in the first bucket, 1.5 and 2.0 in
        # the second, 2.5 overflows.
        assert state.counts == (2, 2, 1)
        assert state.count == 5
        assert state.sum == pytest.approx(7.0)

    def test_histogram_re_registration_must_match_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)  # same: fine
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_span_records_into_phase_histogram(self):
        registry = MetricsRegistry()
        with registry.span("generate"):
            pass
        phases = registry.snapshot().phase_seconds()
        assert "generate" in phases
        seconds, count = phases["generate"]
        assert count == 1 and seconds >= 0.0

    def test_disabled_registry_is_a_no_op(self):
        previous = obs.set_enabled(False)
        try:
            registry = obs.get_registry()
            registry.counter("x").inc()
            registry.gauge("g").set(1.0)
            registry.histogram("h").observe(1.0)
            with obs.span("generate"):
                pass
            assert obs.snapshot_dict() is None
        finally:
            obs.set_enabled(previous)

    def test_snapshot_dict_is_none_when_empty(self):
        assert obs.snapshot_dict() is None
        obs.get_registry().counter("x").inc()
        assert obs.snapshot_dict() is not None


# ------------------------------------------------------------ merge algebra


def _snapshot_strategy():
    names = st.sampled_from(["a", "b", "c{x=1}", "phase.seconds{phase=sync}"])
    counters = st.dictionaries(names, st.integers(0, 1000), max_size=4)
    gauges = st.dictionaries(names, st.floats(0, 100), max_size=4)
    bounds = (0.1, 1.0, 10.0)

    def histogram(counts):
        total = sum(counts)
        return HistogramState(
            bounds=bounds, counts=tuple(counts), sum=float(total), count=total
        )

    histograms = st.dictionaries(
        st.sampled_from(["h1", "h2"]),
        st.lists(st.integers(0, 50), min_size=4, max_size=4).map(histogram),
        max_size=2,
    )
    return st.builds(MetricsSnapshot, counters=counters, gauges=gauges,
                     histograms=histograms)


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(_snapshot_strategy(), _snapshot_strategy())
    def test_merge_commutes(self, left, right):
        assert left.merge(right).to_dict() == right.merge(left).to_dict()

    @settings(max_examples=50, deadline=None)
    @given(_snapshot_strategy(), _snapshot_strategy(), _snapshot_strategy())
    def test_merge_is_associative(self, a, b, c):
        assert (
            a.merge(b).merge(c).to_dict() == a.merge(b.merge(c)).to_dict()
        )

    @settings(max_examples=50, deadline=None)
    @given(_snapshot_strategy())
    def test_empty_snapshot_is_identity(self, snapshot):
        empty = MetricsSnapshot.from_dict(None)
        assert empty.merge(snapshot).to_dict() == snapshot.to_dict()
        assert snapshot.merge(empty).to_dict() == snapshot.to_dict()

    @settings(max_examples=50, deadline=None)
    @given(_snapshot_strategy())
    def test_dict_round_trip(self, snapshot):
        restored = MetricsSnapshot.from_dict(snapshot.to_dict())
        assert restored.to_dict() == snapshot.to_dict()
        # And survives JSON, the actual wire substrate.
        rejsoned = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert rejsoned.to_dict() == snapshot.to_dict()

    def test_incompatible_histogram_bounds_refuse_to_merge(self):
        one = HistogramState(bounds=(1.0,), counts=(1, 0), sum=0.5, count=1)
        two = HistogramState(bounds=(2.0,), counts=(1, 0), sum=0.5, count=1)
        with pytest.raises(TelemetryError):
            one.merge(two)


# ------------------------------------------------------------------- the wire


class TestWire:
    def test_sync_message_round_trips_telemetry(self):
        obs.get_registry().counter("campaign.bugs").inc(3)
        snapshot = obs.snapshot_dict()
        message = ("sync", 1, 4, [], snapshot)
        decoded = wire.decode_message(
            json.loads(json.dumps(wire.encode_message(message)))
        )
        assert decoded[0] == "sync" and decoded[1] == 1 and decoded[2] == 4
        assert len(decoded) == 5
        assert MetricsSnapshot.from_dict(decoded[4]).counter_value(
            "campaign.bugs"
        ) == 3

    def test_sync_message_without_telemetry_stays_four_tuple(self):
        decoded = wire.decode_message(wire.encode_message(("sync", 0, 1, [])))
        assert len(decoded) == 4

    def test_stats_round_trip(self):
        payload = {"frames_rejected": 2, "telemetry": None, "shards": [0, 1]}
        decoded = wire.decode_message(
            json.loads(json.dumps(wire.encode_message(("stats-ok", payload))))
        )
        assert decoded[0] == "stats-ok"
        assert decoded[1]["frames_rejected"] == 2
        assert decoded[1]["shards"] == [0, 1]

    def test_malformed_snapshot_is_rejected(self):
        obj = wire.encode_message(("sync", 0, 1, []))
        obj["telemetry"] = {"counters": {"x": "NaN-ish"}}
        with pytest.raises(ProtocolError):
            wire.decode_message(obj)

    def test_histogram_counts_length_is_validated(self):
        bad = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {"bounds": [1.0], "counts": [1], "sum": 0.0, "count": 1}
            },
        }
        obj = wire.encode_message(("sync", 0, 1, []))
        obj["telemetry"] = bad
        with pytest.raises(ProtocolError):
            wire.decode_message(obj)


# -------------------------------------------------- determinism regression


DET_SPEC = CampaignSpec(
    kind="differential",
    dataset="shopping",
    dataset_rows=80,
    hours=2,
    queries_per_hour=8,
    seed=9,
)
DET = DET_SPEC.campaign_config()


def _campaign_fingerprint(result):
    fingerprint = [
        (s.hour, s.queries_generated, s.isomorphic_sets, s.bug_count)
        for s in result.samples
    ]
    if result.bug_log is not None:
        fingerprint.append(
            sorted(
                (tuple(sorted(i.root_cause)), i.query_canonical_label)
                for i in result.bug_log.incidents
            )
        )
    return fingerprint


class TestDeterminismWithTelemetry:
    def test_serial_campaign_identical_with_telemetry_on_and_off(self):
        with_telemetry = run_campaign(DET_SPEC)
        previous = obs.set_enabled(False)
        try:
            obs.reset_registry()
            without = run_campaign(DET_SPEC)
        finally:
            obs.set_enabled(previous)
        assert _campaign_fingerprint(with_telemetry) == _campaign_fingerprint(
            without
        )

    def test_tqs_campaign_identical_with_telemetry_on_and_off(self):
        spec = CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=30,
                            hours=2, queries_per_hour=8, seed=9)
        with_telemetry = run_campaign(spec)
        shared = obs.get_registry().snapshot().counter_value(
            "engine.shared_executions")
        assert 0 < shared < with_telemetry.final.queries_executed
        previous = obs.set_enabled(False)
        try:
            obs.reset_registry()
            without = run_campaign(spec)
        finally:
            obs.set_enabled(previous)
        assert _campaign_fingerprint(with_telemetry) == _campaign_fingerprint(
            without
        )

    def test_parallel_pool_identical_with_telemetry_on_and_off(self):
        shards = build_shard_specs("differential", DET, 2, backend="sqlite")
        config = ParallelCampaignConfig(workers=2, sync_interval=1)
        with_telemetry = run_parallel_shards(shards, config)
        assert with_telemetry.telemetry is not None
        previous = obs.set_enabled(False)
        try:
            without = run_parallel_shards(shards, config)
        finally:
            obs.set_enabled(previous)
        assert _campaign_fingerprint(
            with_telemetry.merged
        ) == _campaign_fingerprint(without.merged)
        # Budgets (the adaptive-policy inputs) must match too.
        assert [
            list(s.hourly_budgets) for s in with_telemetry.sync_stats
        ] == [list(s.hourly_budgets) for s in without.sync_stats]

    def test_tcp_pool_identical_with_telemetry_on_and_off(self):
        """The TCP barrier records its wait only with telemetry on; the
        verdicts, budgets and sync traffic are the same either way."""
        config = replace(DET, hours=4)
        shards = build_shard_specs("differential", config, 2, backend="sqlite")
        pool = ParallelCampaignConfig(workers=2, sync_interval=1, transport="tcp")
        with_telemetry = run_parallel_shards(shards, pool)
        phases = MetricsSnapshot.from_dict(with_telemetry.telemetry).phase_seconds()
        syncs = 2 * len(sync_schedule(config.hours, 1))
        assert phases["sync"][1] == phases["sync.wait"][1] == syncs
        assert phases["sync.wait"][0] <= phases["sync"][0]
        previous = obs.set_enabled(False)
        try:
            without = run_parallel_shards(shards, pool)
        finally:
            obs.set_enabled(previous)
        assert without.telemetry is None
        assert _campaign_fingerprint(
            with_telemetry.merged
        ) == _campaign_fingerprint(without.merged)
        assert with_telemetry.sync_stats == without.sync_stats


# ------------------------------------------------------- pool-level merging


class TestPoolTelemetry:
    def test_two_worker_pool_merges_worker_snapshots(self):
        shards = build_shard_specs("differential", DET, 2, backend="sqlite")
        outcome = run_parallel_shards(
            shards, ParallelCampaignConfig(workers=2, sync_interval=1)
        )
        assert outcome.telemetry is not None
        snapshot = MetricsSnapshot.from_dict(outcome.telemetry)
        final = outcome.merged.final
        assert snapshot.counter_value(
            "campaign.queries_generated"
        ) == final.queries_generated
        assert snapshot.counter_value("campaign.bugs") == final.bug_count
        # Phase spans cover most of the workers' wall-clock: the acceptance
        # bar for the artifact is 90%; stay lenient against CI noise here.
        covered = obs.phase_total_seconds(snapshot)
        wall = obs.worker_run_seconds(snapshot)
        assert wall > 0.0
        assert covered >= 0.5 * wall
        # Both workers contributed a run-duration observation.
        assert snapshot.histograms["worker.run.seconds"].count == 2
        # The pool records one barrier wait per sync, inside it.
        phases = snapshot.phase_seconds()
        syncs = 2 * len(sync_schedule(DET.hours, 1))
        assert phases["sync"][1] == phases["sync.wait"][1] == syncs
        assert phases["sync.wait"][0] <= phases["sync"][0]
        # A sub-phase is left out of the span total: covered time is
        # still at most the workers' wall-clock.
        assert covered <= wall

    def test_pool_live_stats_print_the_servers_merged_line(self, capfd):
        shards = build_shard_specs("differential", DET, 2, backend="sqlite")
        outcome = run_parallel_shards(
            shards, ParallelCampaignConfig(workers=2, sync_interval=1, live_stats=True)
        )
        assert outcome.telemetry is not None
        lines = [
            line for line in capfd.readouterr().err.splitlines()
            if line.startswith("pool[2w] ")
        ]
        assert lines
        final = outcome.merged.final
        assert (
            f"{final.queries_generated} generated / "
            f"{final.queries_executed} executed" in lines[-1]
        )

    def test_sub_phases_are_left_out_of_totals(self):
        registry = MetricsRegistry()
        registry.observe_phase("sync", 1.0)
        registry.observe_phase("sync.wait", 0.5)
        registry.observe_phase("execute.target", 2.0)
        snapshot = registry.snapshot()
        assert obs.phase_total_seconds(snapshot) == pytest.approx(3.0)
        text = obs.render_phase_breakdown(snapshot, wall_seconds=3.0)
        assert "sync.wait" in text
        assert "span coverage: 100.0%" in text

    def test_phase_breakdown_renders(self):
        shards = build_shard_specs("differential", DET, 1, backend="sqlite")
        outcome = run_parallel_shards(
            shards, ParallelCampaignConfig(workers=1, sync_interval=1)
        )
        text = obs.render_phase_breakdown(
            MetricsSnapshot.from_dict(outcome.telemetry)
        )
        assert "span coverage" in text and "generate" in text

    def test_campaign_json_carries_telemetry_outside_summary(self):
        from repro.analysis.reporting import parallel_result_to_dict

        shards = build_shard_specs("differential", DET, 1, backend="sqlite")
        outcome = run_parallel_shards(
            shards, ParallelCampaignConfig(workers=1, sync_interval=1)
        )
        payload = parallel_result_to_dict(outcome, campaign={"kind": "x"})
        assert payload["telemetry"] is not None
        assert "telemetry" not in payload["summary"]
        phases = {entry["phase"] for entry in payload["telemetry"]["phases"]}
        assert "generate" in phases
        assert isinstance(payload["telemetry"]["execute_errors"], list)
        json.dumps(payload)  # JSON-serializable end to end


# ----------------------------------------------------------- STATS over TCP


class TestStatsVerb:
    def test_stats_over_authenticated_tcp(self):
        key = b"k" * 32
        shards = build_shard_specs("differential", DET, 2, backend="sqlite")
        server = IndexServer(
            shards=shards,
            sync_hours=sync_schedule(DET.hours, 1),
            round_timeout=30.0,
            auth_key=key,
        )
        server.start()
        try:
            # An unauthenticated garbage frame bumps the rejection counter.
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as sock:
                sock.sendall(b"\x00" * 16)
            # The rejection happens on the server's connection thread; poll
            # briefly instead of racing it.
            deadline = time.monotonic() + 5.0
            stats = fetch_stats(server.host, server.port, auth_key=key)
            while not stats["frames_rejected"] and time.monotonic() < deadline:
                time.sleep(0.05)
                stats = fetch_stats(server.host, server.port, auth_key=key)
            assert stats["expected_shards"] == 2
            assert stats["registered_shards"] == []
            assert stats["frames_rejected"] >= 1
            assert stats["rounds_completed"] == 0
            assert stats["sync_rounds_scheduled"] == len(server.sync_hours)
            assert set(stats["shard_last_heard_seconds"]) == {"0", "1"}
            assert stats["completed"] is False
            assert stats["eviction_count"] == 0
        finally:
            server.stop()

    def test_stats_requires_the_auth_key(self):
        from repro.errors import TransportError

        shards = build_shard_specs("differential", DET, 1, backend="sqlite")
        server = IndexServer(
            shards=shards, sync_hours=(), round_timeout=30.0, auth_key=b"s" * 32
        )
        server.start()
        try:
            with pytest.raises(TransportError):
                fetch_stats(server.host, server.port, auth_key=b"wrong" * 8)
        finally:
            server.stop()


# ---------------------------------------------------------------- prometheus


class TestPrometheus:
    def test_render_families(self):
        registry = MetricsRegistry()
        registry.counter("execute.errors", backend="sqlite", kind="X").inc(2)
        registry.gauge("pool.workers").set(2.0)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = render_prometheus(
            registry.snapshot(), extra_gauges={"server.frames_rejected": 3}
        )
        assert (
            'tqs_execute_errors_total{backend="sqlite",kind="X"} 2' in text
        )
        assert "tqs_pool_workers 2" in text
        assert 'tqs_h_bucket{le="1"} 0' in text
        assert 'tqs_h_bucket{le="2"} 1' in text
        assert 'tqs_h_bucket{le="+Inf"} 1' in text
        assert "tqs_h_count 1" in text
        assert "tqs_server_frames_rejected 3" in text

    def test_http_endpoint_serves_snapshot(self):
        import urllib.request

        registry = MetricsRegistry()
        registry.counter("campaign.bugs").inc(7)
        endpoint = obs.MetricsHTTPServer(
            "127.0.0.1", 0, lambda: render_prometheus(registry.snapshot())
        )
        endpoint.start()
        try:
            host, port = endpoint.address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5.0
            ).read().decode("utf-8")
            assert "tqs_campaign_bugs_total 7" in body
        finally:
            endpoint.stop()


# ------------------------------------------------------------ error counters


class TestExecuteErrors:
    def test_execute_errors_counter_and_breakdown(self):
        registry = obs.get_registry()
        registry.counter("execute.errors", backend="duckdb", kind="B").inc(2)
        registry.counter("execute.errors", backend="sqlite", kind="A").inc()
        snapshot = registry.snapshot()
        assert obs.error_counts(snapshot) == {
            "execute.errors{backend=duckdb,kind=B}": 2,
            "execute.errors{backend=sqlite,kind=A}": 1,
        }
        assert obs.error_breakdown(snapshot) == [
            {"backend": "duckdb", "kind": "B", "count": 2},
            {"backend": "sqlite", "kind": "A", "count": 1},
        ]
