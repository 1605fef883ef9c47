"""Tests for the wire protocol: typed JSON codecs, authenticated framing, handshake.

The codec layer carries the distributed determinism contract, so the
round-trip tests here are property-based: random campaign-shaped payloads
(embeddings, label lists, budget vectors, bug incidents) must encode → decode
*identically*, and arbitrary byte garbage fed to the frame reader must raise
``ProtocolError`` promptly — never hang, never allocate unbounded memory,
never reach ``pickle.loads``.
"""

import json
import pickle
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CampaignConfig,
    ParallelCampaignConfig,
    run_parallel_tqs_campaign,
)
from repro.core.bug_report import BugIncident
from repro.core.campaign import HourlySample
from repro.core.parallel import WorkerReport, build_shard_specs, sync_schedule
from repro.distributed import protocol, wire
from repro.distributed.client import RemoteSyncTransport
from repro.distributed.protocol import JsonFrameCodec, SyncBroadcast, load_auth_key
from repro.distributed.server import IndexServer
from repro.distributed.testing import ScriptedClient, flip_byte, truncate_frame
from repro.engine import SIM_MYSQL
from repro.errors import ProtocolError, TransportError

KEY = b"protocol-v2-test-key"

FAST = CampaignConfig(
    dataset="shopping", dataset_rows=90, hours=3, queries_per_hour=6, seed=71
)


def socket_pair():
    return socket.socketpair()


# ------------------------------------------------------------------ strategies

_counts = st.integers(min_value=0, max_value=10**9)
_ids = st.integers(min_value=-1, max_value=10**6)
_text = st.text(max_size=24)
# Index entries ride packed as float32 blobs, and a batch shares one
# dimensionality (one embedder per campaign), so vectors are float32 values
# of one length per batch.
_float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)
_entries = st.integers(min_value=0, max_value=6).flatmap(
    lambda dims: st.lists(
        st.tuples(st.lists(_float32s, min_size=dims, max_size=dims), _text),
        max_size=4,
    )
).map(lambda pairs: [(list(vector), label) for vector, label in pairs])
_samples = st.builds(
    HourlySample,
    hour=_counts,
    queries_generated=_counts,
    queries_executed=_counts,
    isomorphic_sets=_counts,
    bug_count=_counts,
    bug_type_count=_counts,
    generations_rejected=_counts,
)
_incidents = st.builds(
    BugIncident,
    dbms=_text,
    query_sql=_text,
    hint_name=_text,
    detection_mode=st.sampled_from(["ground_truth", "differential"]),
    query_canonical_label=_text,
    fired_bug_ids=st.lists(_counts, max_size=4).map(tuple),
    expected_rows=_counts,
    observed_rows=_counts,
    minimized_sql=st.none() | _text,
)
_reports = st.builds(
    WorkerReport,
    shard_id=_ids,
    tool=_text,
    dbms=_text,
    dataset=_text,
    samples=st.lists(_samples, max_size=3),
    hourly_new_labels=st.lists(st.lists(_text, max_size=3), max_size=3),
    hourly_incidents=st.lists(st.lists(_incidents, max_size=2), max_size=2),
    unsynced_entries=_entries,
    hourly_budgets=st.lists(_counts, max_size=4),
    entries_shipped=_counts,
    broadcast_entries_received=_counts,
    broadcast_entries_suppressed=_counts,
)
_configs = st.builds(
    CampaignConfig,
    dataset=_text,
    dataset_rows=_counts,
    hours=_counts,
    queries_per_hour=_counts,
    seed=_counts,
    use_noise=st.booleans(),
    use_ground_truth=st.booleans(),
    use_kqe=st.booleans(),
    max_hint_sets=st.none() | _counts,
)
_specs = st.builds(
    lambda config, shard_id, kind, dialect, baseline, backend, batch_size: (
        build_shard_specs(kind, config, 1, dialect=dialect, baseline=baseline,
                          backend=backend, batch_size=batch_size)[0]
    ),
    config=_configs.filter(lambda c: c.queries_per_hour >= 1),
    shard_id=_counts,
    kind=st.sampled_from(["tqs", "differential"]),
    dialect=_text,
    baseline=_text,
    backend=_text,
    batch_size=st.integers(min_value=1, max_value=16),
)
_broadcasts = st.builds(
    SyncBroadcast,
    entries=_entries,
    suppressed=_counts,
    next_budget=st.none() | _counts,
)
_messages = st.one_of(
    st.tuples(st.just(protocol.HELLO), _counts),
    st.tuples(st.just(protocol.HELLO_OK), _counts, _text),
    st.tuples(st.just(protocol.REGISTER), st.none() | _counts),
    st.tuples(st.just(protocol.SYNC), _ids, _counts, _entries),
    st.tuples(st.just(protocol.TICK), _ids),
    st.tuples(st.just(protocol.REPORT), _reports),
    st.tuples(st.just(protocol.ERROR), _ids, _text),
    st.just((protocol.SHUTDOWN,)),
    st.tuples(st.just(protocol.REGISTERED), st.none() | _specs,
              st.lists(_counts, max_size=5)),
    st.tuples(st.just(protocol.BROADCAST), _broadcasts),
    st.just((protocol.OK,)),
    st.tuples(st.just(protocol.ABORT), _text),
)


class TestWireRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(message=_messages)
    def test_every_message_survives_a_json_round_trip(self, message):
        encoded = wire.encode_message(message)
        rehydrated = json.loads(json.dumps(encoded))
        assert wire.decode_message(rehydrated) == message

    @settings(max_examples=40, deadline=None)
    @given(report=_reports)
    def test_worker_reports_round_trip_exactly(self, report):
        decoded = wire.decode_worker_report(
            json.loads(json.dumps(wire.encode_worker_report(report)))
        )
        assert decoded == report

    @settings(max_examples=40, deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=5), children, max_size=3),
        max_leaves=8,
    ))
    def test_arbitrary_json_values_never_decode_silently(self, value):
        """Anything that is not a well-formed message raises ProtocolError."""
        try:
            message = wire.decode_message(value)
        except ProtocolError:
            return
        # The only values that may decode are well-formed message objects.
        assert isinstance(message, tuple) and message
        assert wire.encode_message(message) is not None

    def test_malformed_fields_are_rejected(self):
        good = wire.encode_message((protocol.SYNC, 0, 1, [([1.0], "L")]))
        for breakage in (
            lambda o: o.pop("verb"),
            lambda o: o.__setitem__("verb", "warp"),
            lambda o: o.__setitem__("shard_id", "zero"),
            lambda o: o.__setitem__("hour", True),
            lambda o: o.__setitem__("entries", [["not-a-pair"]]),
            lambda o: o.__setitem__("entries", [[[1.0], 7]]),
            lambda o: o.__setitem__("entries", [[["x"], "L"]]),
        ):
            broken = json.loads(json.dumps(good))
            breakage(broken)
            with pytest.raises(ProtocolError):
                wire.decode_message(broken)


class TestJsonFraming:
    @settings(max_examples=30, deadline=None)
    @given(message=_messages, key=st.binary(max_size=16))
    def test_frames_round_trip_over_a_socket(self, message, key):
        codec = JsonFrameCodec(key)
        left, right = socket_pair()
        try:
            codec.send(left, message)
            assert codec.recv(right) == message
        finally:
            left.close()
            right.close()

    @settings(max_examples=60, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=256))
    def test_garbage_raises_protocol_error_and_never_hangs(self, garbage):
        codec = JsonFrameCodec(KEY)
        left, right = socket_pair()
        try:
            left.sendall(garbage)
            left.close()
            right.settimeout(5.0)
            with pytest.raises(ProtocolError):
                codec.recv(right)
        finally:
            right.close()

    def test_hostile_length_rejected_before_allocation(self):
        codec = JsonFrameCodec(KEY)
        left, right = socket_pair()
        try:
            left.sendall(protocol.MAGIC + (0x7FFFFFFF).to_bytes(4, "big"))
            right.settimeout(5.0)
            with pytest.raises(ProtocolError, match="exceeds"):
                codec.recv(right)
        finally:
            left.close()
            right.close()

    def test_every_tampered_byte_is_detected(self):
        codec = JsonFrameCodec(KEY)
        frame = codec.encode((protocol.SYNC, 3, 2, [([0.5, 1.0], "label-a")]))
        for offset in range(len(protocol.MAGIC), len(frame)):
            left, right = socket_pair()
            try:
                left.sendall(flip_byte(frame, offset))
                left.close()
                right.settimeout(5.0)
                with pytest.raises(ProtocolError):
                    codec.recv(right)
            finally:
                right.close()

    def test_wrong_key_fails_authentication(self):
        left, right = socket_pair()
        try:
            JsonFrameCodec(b"alpha").send(left, (protocol.OK,))
            with pytest.raises(ProtocolError, match="authentication"):
                JsonFrameCodec(b"beta").recv(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_is_a_protocol_error(self):
        codec = JsonFrameCodec(KEY)
        frame = codec.encode((protocol.OK,))
        for keep in (2, 6, 20, len(frame) - 1):
            left, right = socket_pair()
            try:
                left.sendall(truncate_frame(frame, keep))
                left.close()
                right.settimeout(5.0)
                with pytest.raises(ProtocolError, match="truncated"):
                    codec.recv(right)
            finally:
                right.close()

    def test_pickle_frame_is_a_protocol_mismatch(self):
        payload = pickle.dumps((protocol.TICK, 0))
        left, right = socket_pair()
        try:
            left.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="not a protocol frame"):
                JsonFrameCodec(KEY).recv(right)
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none_when_allowed(self):
        codec = JsonFrameCodec(KEY)
        left, right = socket_pair()
        left.close()
        try:
            assert codec.recv(right, allow_eof=True) is None
            with pytest.raises(TransportError):
                codec.recv(right)
        finally:
            right.close()


class TestCodecConfiguration:
    def test_auth_key_file_round_trip(self, tmp_path):
        path = tmp_path / "key"
        path.write_bytes(b"  sekrit-value\n")
        assert load_auth_key(str(path)) == b"sekrit-value"

    def test_empty_or_missing_key_file_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"\n")
        with pytest.raises(TransportError, match="empty"):
            load_auth_key(str(empty))
        with pytest.raises(TransportError, match="cannot read"):
            load_auth_key(str(tmp_path / "missing"))


def make_server(**overrides):
    options = dict(
        shards=build_shard_specs("tqs", FAST, 1),
        sync_hours=sync_schedule(FAST.hours, 1),
        round_timeout=60.0,
        auth_key=KEY,
    )
    options.update(overrides)
    return IndexServer(**options).start()


class TestHandshake:
    def test_authenticated_client_registers(self):
        server = make_server()
        try:
            transport = RemoteSyncTransport(server.host, server.port,
                                            auth_key=KEY)
            assert transport.register(0) is None
            transport.close()
        finally:
            server.stop()

    def test_wrong_key_client_is_rejected(self):
        server = make_server()
        try:
            with pytest.raises(TransportError, match="authentication|auth key"):
                RemoteSyncTransport(server.host, server.port,
                                    auth_key=b"not-the-key")
            assert server.failure is None
            assert server.frames_rejected >= 1
        finally:
            server.stop()

    def test_hello_required_before_other_verbs(self):
        server = make_server()
        try:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=10.0)
            sock.settimeout(10.0)
            codec = JsonFrameCodec(KEY)
            codec.send(sock, (protocol.REGISTER, 0))
            reply = codec.recv(sock)
            assert reply[0] == protocol.ABORT
            assert "HELLO" in reply[1]
            sock.close()
            assert server.failure is None
        finally:
            server.stop()

    def test_future_version_is_refused(self):
        """Any HELLO version but the current one is refused, older ones too."""
        server = make_server()
        try:
            for version in (2, 99):
                sock = socket.create_connection((server.host, server.port),
                                                timeout=10.0)
                sock.settimeout(10.0)
                codec = JsonFrameCodec(KEY)
                codec.send(sock, (protocol.HELLO, version))
                reply = codec.recv(sock)
                assert reply[0] == protocol.ABORT
                assert "version" in reply[1]
                sock.close()
            assert server.failure is None
            assert server.frames_rejected == 2
        finally:
            server.stop()


class TestNoPickleOnTheWire:
    def test_json_server_never_unpickles_socket_bytes(self, tmp_path):
        """A poison pickle frame must bounce without being deserialized."""
        import os

        bomb_dir = tmp_path / "boom"

        class Bomb:
            def __reduce__(self):
                return (os.mkdir, (str(bomb_dir),))

        payload = pickle.dumps(Bomb(), protocol=pickle.HIGHEST_PROTOCOL)
        # Sanity: unpickling this payload *would* fire the bomb.
        assert b"boom" in payload
        server = make_server()
        try:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=10.0)
            sock.settimeout(10.0)
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
            # The frame is rejected like any other malformed input.
            reply = JsonFrameCodec(KEY).recv(sock)
            assert reply[0] == protocol.ABORT
            assert "not a protocol frame" in reply[1]
            sock.close()
            assert not bomb_dir.exists()
            assert server.failure is None
            assert server.frames_rejected == 1
            # And it keeps serving authenticated clients.
            transport = RemoteSyncTransport(server.host, server.port,
                                            auth_key=KEY)
            assert transport.register(0) is None
            transport.close()
        finally:
            server.stop()


class TestReplayProtection:
    def test_frames_do_not_replay_across_connections(self):
        """A captured frame fails authentication on any other connection."""
        server = make_server()
        try:
            first = ScriptedClient(server.host, server.port, auth_key=KEY)
            captured = first.codec.encode((protocol.TICK, 0))
            assert first.request((protocol.TICK, 0)) == (protocol.OK,)
            second = ScriptedClient(server.host, server.port, auth_key=KEY)
            second.send_raw(captured)
            reply = second.recv()
            assert reply[0] == protocol.ABORT
            assert "authentication" in reply[1]
            # The replay cost only that connection; the campaign is healthy
            # and the original connection keeps working.
            assert server.failure is None
            assert first.request((protocol.TICK, 0)) == (protocol.OK,)
            first.close()
            second.close()
        finally:
            server.stop()

    def test_handshake_nonces_differ_per_connection(self):
        server = make_server()
        try:
            sockets = []
            nonces = set()
            for _ in range(3):
                sock = socket.create_connection((server.host, server.port),
                                                timeout=10.0)
                sock.settimeout(10.0)
                codec = JsonFrameCodec(KEY)
                codec.send(sock, (protocol.HELLO, protocol.PROTOCOL_VERSION))
                reply = codec.recv(sock)
                assert reply[0] == protocol.HELLO_OK
                nonces.add(reply[2])
                sockets.append(sock)
            assert len(nonces) == 3
            for sock in sockets:
                sock.close()
        finally:
            server.stop()


class TestJsonDeterminism:
    def test_authenticated_json_pool_matches_local_pool(self):
        """The acceptance contract: TCP/JSON+auth == in-process pool, bitwise."""

        def pool(**overrides):
            options = dict(workers=2, sync_interval=1, worker_timeout=120.0)
            options.update(overrides)
            return run_parallel_tqs_campaign(
                SIM_MYSQL, FAST, ParallelCampaignConfig(**options)
            )

        local = pool()
        remote = pool(transport="tcp", auth_key=KEY)
        assert remote.merged.samples == local.merged.samples
        assert remote.sync_stats == local.sync_stats
        assert remote.central_index_size == local.central_index_size
        assert remote.broadcast_entries_sent == local.broadcast_entries_sent
        assert (
            remote.broadcast_entries_suppressed
            == local.broadcast_entries_suppressed
        )
        merged_keys = {
            (incident.root_cause, incident.query_canonical_label)
            for incident in remote.merged.bug_log.incidents
        }
        local_keys = {
            (incident.root_cause, incident.query_canonical_label)
            for incident in local.merged.bug_log.incidents
        }
        assert merged_keys == local_keys
