"""Tests for the packed (protocol v3) index-entry wire encoding.

The packed codec ships one base64 float32 blob per batch instead of per-float
JSON arrays; these tests pin three things: the codec is lossless for everything
the ship boundary produces (float32-quantized values), hostile packed objects
(and the retired per-float pair lists) are rejected before any allocation, and
every connection the HELLO exchange admits speaks version 3.
"""

import base64
import json
import math
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CampaignConfig
from repro.core.parallel import WorkerReport, build_shard_specs, sync_schedule
from repro.distributed import protocol, wire
from repro.distributed.protocol import JsonFrameCodec, SyncBroadcast
from repro.distributed.server import IndexServer
from repro.errors import ProtocolError

KEY = b"packed-wire-test-key"

FAST = CampaignConfig(
    dataset="shopping", dataset_rows=90, hours=3, queries_per_hour=6, seed=71
)

_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_labels = st.text(max_size=16)


@st.composite
def rectangular_entries(draw):
    """Entry batches as the ship boundary produces them: one dimensionality."""
    dims = draw(st.integers(min_value=0, max_value=6))
    count = draw(st.integers(min_value=0, max_value=5))
    vectors = draw(
        st.lists(
            st.lists(_f32, min_size=dims, max_size=dims),
            min_size=count,
            max_size=count,
        )
    )
    labels = draw(st.lists(_labels, min_size=count, max_size=count))
    return [(vector, label) for vector, label in zip(vectors, labels)]


def packed_sample(count=3, dims=4):
    entries = [
        ([float(row * dims + col) for col in range(dims)], f"L{row}")
        for row in range(count)
    ]
    return wire.encode_entries_packed(entries), entries


class TestPackedCodec:
    @settings(max_examples=200, deadline=None)
    @given(rectangular_entries())
    def test_round_trips_through_json_losslessly(self, entries):
        encoded = json.loads(json.dumps(wire.encode_entries_packed(entries)))
        decoded = wire.decode_entries_packed(encoded)
        assert decoded == [(list(vector), label) for vector, label in entries]

    def test_quantized_floats_survive_bit_identically(self):
        from repro.kqe.store import quantize_to_float32

        vector = quantize_to_float32([1.0 / 3.0, -2.7e-12, 8191.125])
        packed = wire.encode_entries_packed([(vector, "L")])
        ((decoded, _),) = wire.decode_entries_packed(packed)
        assert struct.pack("<3d", *decoded) == struct.pack("<3d", *vector)

    def test_packed_batches_are_at_least_three_times_smaller(self):
        entries = [
            ([(row * 64 + col) / 7.0 for col in range(64)], f"label-{row}")
            for row in range(100)
        ]
        per_float = [[list(vector), label] for vector, label in entries]
        as_json = len(json.dumps(per_float))
        as_packed = len(json.dumps(wire.encode_entries_packed(entries)))
        assert as_packed * 3 <= as_json

    def test_ragged_batches_are_a_caller_bug(self):
        with pytest.raises(ProtocolError, match="ragged"):
            wire.encode_entries_packed([([1.0, 2.0], "A"), ([3.0], "B")])


class TestPackedRejection:
    def test_non_finite_components_are_rejected(self):
        packed, _ = packed_sample(count=1, dims=2)
        packed["data"] = base64.b64encode(
            struct.pack("<2f", math.inf, 1.0)
        ).decode("ascii")
        with pytest.raises(ProtocolError, match="not finite"):
            wire.decode_entries_packed(packed)
        packed["data"] = base64.b64encode(
            struct.pack("<2f", 1.0, math.nan)
        ).decode("ascii")
        with pytest.raises(ProtocolError, match="not finite"):
            wire.decode_entries_packed(packed)

    def test_forged_count_is_rejected_before_allocation(self):
        packed, _ = packed_sample()
        packed["count"] = 1 << 20
        packed["dims"] = 1 << 20  # 2^40 floats: must die at the shape check
        with pytest.raises(ProtocolError, match="implausible"):
            wire.decode_entries_packed(packed)

    def test_count_and_labels_must_agree(self):
        packed, _ = packed_sample(count=3)
        packed["labels"] = packed["labels"][:2]
        with pytest.raises(ProtocolError, match="labels"):
            wire.decode_entries_packed(packed)

    def test_blob_length_must_match_the_claimed_shape(self):
        packed, _ = packed_sample(count=3, dims=4)
        packed["count"] = 2  # label count now lies too; fix labels only
        packed["labels"] = packed["labels"][:2]
        with pytest.raises(ProtocolError, match="base64 chars"):
            wire.decode_entries_packed(packed)

    def test_invalid_base64_is_rejected(self):
        packed, _ = packed_sample(count=1, dims=2)
        packed["data"] = "!" * len(packed["data"])
        with pytest.raises(ProtocolError, match="base64"):
            wire.decode_entries_packed(packed)

    def test_negative_shape_is_rejected(self):
        packed, _ = packed_sample()
        packed["count"] = -1
        with pytest.raises(ProtocolError):
            wire.decode_entries_packed(packed)

    def test_unknown_packed_version_is_rejected(self):
        packed, _ = packed_sample()
        packed["packed"] = 2
        with pytest.raises(ProtocolError, match="packed-batch version"):
            wire.decode_entries_packed(packed)

    def test_pair_list_entries_are_rejected(self):
        """The per-float ``[[vector, label], ...]`` form is not accepted."""
        pairs = [[[1.0, 2.0], "L"]]
        with pytest.raises(ProtocolError, match="expected an object"):
            wire.decode_entries_packed(pairs)
        sync = wire.encode_message((protocol.SYNC, 0, 1, [([1.0, 2.0], "L")]))
        sync["entries"] = pairs
        with pytest.raises(ProtocolError):
            wire.decode_message(sync)

    def test_non_string_labels_are_rejected(self):
        packed, _ = packed_sample(count=1, dims=1)
        packed["labels"] = [7]
        with pytest.raises(ProtocolError):
            wire.decode_entries_packed(packed)


class TestPackedMessages:
    """Whole protocol messages survive the packed encoding unchanged."""

    ENTRIES = [
        ([1.0, 0.5, -0.25], "alpha"),
        ([0.0, 2.0, 4.0], "beta"),
    ]

    def round_trip(self, message):
        encoded = json.loads(json.dumps(wire.encode_message(message)))
        return wire.decode_message(encoded)

    def test_sync_message(self):
        message = (protocol.SYNC, 0, 2, self.ENTRIES)
        assert self.round_trip(message) == message
        # The SYNC frame really does carry the packed object form.
        obj = wire.encode_message(message)
        assert obj["entries"]["packed"] == 1

    def test_broadcast_message(self):
        broadcast = SyncBroadcast(entries=self.ENTRIES, suppressed=3, next_budget=9)
        assert self.round_trip((protocol.BROADCAST, broadcast)) == (
            protocol.BROADCAST,
            broadcast,
        )

    def test_report_message(self):
        report = WorkerReport(
            shard_id=1,
            tool="tqs",
            dbms="SimMySQL",
            dataset="shopping",
            samples=[],
            hourly_new_labels=[["a"], ["b"]],
            hourly_incidents=[],
            unsynced_entries=self.ENTRIES,
            hourly_budgets=[6, 6],
            entries_shipped=4,
            broadcast_entries_received=2,
            broadcast_entries_suppressed=1,
        )
        verb, decoded = self.round_trip((protocol.REPORT, report))
        assert verb == protocol.REPORT
        assert decoded == report


class TestVersionNegotiation:
    """The HELLO exchange settles every admitted connection on version 3."""

    def make_server(self):
        return IndexServer(
            shards=build_shard_specs("tqs", FAST, 1),
            sync_hours=sync_schedule(FAST.hours, 1),
            round_timeout=60.0,
            auth_key=KEY,
        ).start()

    def hello(self, server, version):
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        sock.settimeout(10.0)
        codec = JsonFrameCodec(KEY)
        codec.send(sock, (protocol.HELLO, version))
        reply = codec.recv(sock)
        return sock, codec, reply

    def test_v3_ends_agree_on_packed_entries(self):
        server = self.make_server()
        try:
            sock, codec, reply = self.hello(server, protocol.PROTOCOL_VERSION)
            assert reply[0] == protocol.HELLO_OK and reply[1] == 3
            codec.bind(reply[2])
            sync = (protocol.SYNC, 0, 1, [([1.0, 2.0], "L")])
            assert b'"packed"' in codec.encode(sync)
            assert codec.request(sock, (protocol.TICK, -1)) == (protocol.OK,)
            sock.close()
        finally:
            server.stop()
