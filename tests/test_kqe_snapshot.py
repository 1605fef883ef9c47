"""Tests for the checksummed snapshot log and GraphIndex persistence."""

import struct

import pytest

from repro.errors import ReproError, SnapshotError
from repro.kqe.graph_index import GraphIndex
from repro.kqe.snapshot import (
    MAGIC,
    SnapshotWriter,
    read_header,
    read_snapshot,
)
from test_kqe_store import hashed_floats

HEADER = {"kind": "test", "version": 1}


def write_sample(path, batches=2):
    with SnapshotWriter.create(str(path), HEADER) as writer:
        for number in range(batches):
            writer.append(
                [[1.0 * number, 2.0], [3.0, 4.0 + number]],
                [f"A{number}", f"B{number}"],
                {"hour": number + 1},
            )
    return path


class TestRoundTrip:
    def test_header_and_batches_round_trip(self, tmp_path):
        path = write_sample(tmp_path / "log.tqssnap")
        header, batches, truncated = read_snapshot(str(path))
        assert header == HEADER
        assert not truncated
        assert [batch.meta for batch in batches] == [{"hour": 1}, {"hour": 2}]
        assert batches[0].vectors == [[0.0, 2.0], [3.0, 4.0]]
        assert batches[1].labels == ["A1", "B1"]
        assert read_header(str(path)) == HEADER

    def test_empty_batch_and_empty_log(self, tmp_path):
        path = tmp_path / "log.tqssnap"
        with SnapshotWriter.create(str(path), HEADER) as writer:
            writer.append([], [], {"hour": 1})
        header, batches, truncated = read_snapshot(str(path))
        assert not truncated
        assert batches[0].vectors == [] and batches[0].labels == []

    def test_ragged_batches_are_rejected_at_write_time(self, tmp_path):
        writer = SnapshotWriter.create(str(tmp_path / "log.tqssnap"), HEADER)
        try:
            with pytest.raises(SnapshotError, match="ragged"):
                writer.append([[1.0, 2.0], [3.0]], ["A", "B"])
            with pytest.raises(SnapshotError, match="labels"):
                writer.append([[1.0]], [])
        finally:
            writer.close()


class TestCrashTolerance:
    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = write_sample(tmp_path / "log.tqssnap")
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        header, batches, truncated = read_snapshot(str(path))
        assert truncated
        assert len(batches) == 1  # the first record survives intact
        assert batches[0].meta == {"hour": 1}

    def test_corrupt_tail_checksum_is_dropped(self, tmp_path):
        path = write_sample(tmp_path / "log.tqssnap")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        _, batches, truncated = read_snapshot(str(path))
        assert truncated and len(batches) == 1

    def test_bad_magic_is_a_typed_error(self, tmp_path):
        path = tmp_path / "log.tqssnap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(str(path))

    def test_corrupt_header_is_a_typed_error(self, tmp_path):
        path = write_sample(tmp_path / "log.tqssnap")
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 4] ^= 0xFF  # first byte of the header JSON
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(str(path))

    def test_implausible_header_length_is_a_typed_error(self, tmp_path):
        path = tmp_path / "log.tqssnap"
        path.write_bytes(MAGIC + struct.pack("<I", 1 << 30))
        with pytest.raises(SnapshotError, match="implausible"):
            read_snapshot(str(path))

    def test_snapshot_error_is_a_repro_error(self):
        # Callers catch the repo-wide base class at CLI boundaries.
        assert issubclass(SnapshotError, ReproError)

    def test_checksum_valid_garbage_payload_is_real_corruption(self, tmp_path):
        # A record whose checksum holds but whose payload does not decode is
        # version skew or deliberate tampering, never a torn write: loud error.
        path = tmp_path / "log.tqssnap"
        SnapshotWriter.create(str(path), HEADER).close()
        payload = b"\xff" * 16
        import hashlib

        record = struct.pack("<I", len(payload)) + hashlib.sha256(payload).digest()
        with open(path, "ab") as handle:
            handle.write(record + payload)
        with pytest.raises(SnapshotError):
            read_snapshot(str(path))


class TestGraphIndexPersistence:
    def populate(self, index, count=40):
        dims = index.embedder.dimensions
        flat = hashed_floats("index-snap", count * dims)
        for position in range(count):
            index.add_embedding(
                flat[position * dims : (position + 1) * dims], f"L{position % 7}"
            )

    def test_save_and_load_round_trip_bit_identically(self, tmp_path):
        index = GraphIndex()
        self.populate(index)
        path = str(tmp_path / "index.tqssnap")
        index.save_snapshot(path)
        restored = GraphIndex.load_snapshot(path)
        assert len(restored) == len(index)
        assert restored.distinct_canonical_labels() == 7
        assert restored.entries_since(0) == index.entries_since(0)
        query = hashed_floats("snap-query", index.embedder.dimensions)
        assert restored.nearest_by_vector(query, k=5) == index.nearest_by_vector(
            query, k=5
        )

    def test_a_snapshot_records_one_vector_per_entry(self, tmp_path):
        # Entries that share a stored row are still written one vector each,
        # so the record format does not depend on how the store holds them.
        index = GraphIndex()
        dims = index.embedder.dimensions
        distinct = [hashed_floats(f"shared-{row}", dims) for row in range(3)]
        for position in range(12):
            index.add_embedding(distinct[position % 3], f"L{position % 3}")
        assert index._store.distinct_rows == 3
        path = str(tmp_path / "shared.tqssnap")
        index.save_snapshot(path)
        _, batches, truncated = read_snapshot(path)
        assert not truncated
        (batch,) = batches
        assert batch.meta == {"count": 12}
        assert batch.vectors == [distinct[position % 3] for position in range(12)]
        assert batch.labels == [f"L{position % 3}" for position in range(12)]

    def test_load_rejects_foreign_snapshots(self, tmp_path):
        path = tmp_path / "other.tqssnap"
        with SnapshotWriter.create(str(path), {"kind": "something-else"}) as writer:
            writer.append([], [])
        with pytest.raises(SnapshotError, match="kqe-graph-index"):
            GraphIndex.load_snapshot(str(path))

    def test_embedder_config_rides_in_the_header(self, tmp_path):
        from repro.kqe.embedding import GraphEmbedder

        index = GraphIndex(embedder=GraphEmbedder(dimensions=32, iterations=3))
        index.add_embedding([1.0] * 32, "L")
        path = str(tmp_path / "index.tqssnap")
        index.save_snapshot(path)
        restored = GraphIndex.load_snapshot(path)
        assert restored.embedder.dimensions == 32
        assert restored.embedder.iterations == 3

    def test_mixed_width_rows_reload_with_bit_identical_norms(self, tmp_path):
        # Rows narrower or wider than the embedder are zero-padded to the
        # store's final width on save; their norms must not depend on the
        # width they arrived with.
        index = GraphIndex()
        widths = (56, 64, 72)
        for row in range(250):
            width = widths[row % len(widths)]
            index.add_embedding(
                hashed_floats(f"mixed-{row}", width), f"L{row % 17}"
            )
        path = str(tmp_path / "mixed.tqssnap")
        index.save_snapshot(path)
        restored = GraphIndex.load_snapshot(path)
        count = len(index)
        assert len(restored) == count
        def norms(store):
            return store._norms[store._row_ids[:count]].tobytes()

        assert norms(restored._store) == norms(index._store)
