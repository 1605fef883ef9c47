"""Tests for the distinct-row vector store behind the KQE graph index."""

import hashlib
import inspect
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    build_tqs_tester,
    run_campaign_loop,
)
from repro.engine.dialects import SIM_MYSQL
from repro.kqe.embedding import GraphEmbedder
from repro.kqe.graph_index import GraphIndex
from repro.kqe.store import EntryBatch, VectorStore, quantize_to_float32


def hashed_floats(seed, count):
    """*count* floats in [-1.0, 1.0), a pure function of *seed*: counter-mode
    blake2b, so the tests use no ambient RNG either."""
    values = []
    block = 0
    while len(values) < count:
        digest = hashlib.blake2b(f"{seed}:{block}".encode(), digest_size=64).digest()
        values.extend(int.from_bytes(digest[offset : offset + 8], "big")
                      / float(1 << 63) - 1.0 for offset in range(0, 64, 8))
        block += 1
    return values[:count]


def synthetic_vectors(count, dims, seed="test-vectors"):
    """Deterministic synthetic embeddings."""
    flat = hashed_floats(seed, count * dims)
    return [flat[i * dims : (i + 1) * dims] for i in range(count)]


def exact_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class TestQuantize:
    def test_round_trip_is_idempotent(self):
        values = [0.1, -2.5, 3.0e-20, 1.0 / 3.0]
        once = quantize_to_float32(values)
        assert quantize_to_float32(once) == once

    def test_float32_representables_pass_through(self):
        assert quantize_to_float32([1.0, -0.5, 0.25, 2.0]) == [1.0, -0.5, 0.25, 2.0]


class TestVectorStore:
    def test_short_vectors_are_zero_padded(self):
        store = VectorStore(dims=4)
        store.append([1.0, 2.0])
        assert list(store.row(0)) == [1.0, 2.0, 0.0, 0.0]

    def test_long_vectors_widen_the_store(self):
        store = VectorStore(dims=2)
        store.append([1.0, 2.0])
        store.append([3.0, 4.0, 5.0])
        assert store.dims == 3
        assert list(store.row(0)) == [1.0, 2.0, 0.0]
        assert list(store.row(1)) == [3.0, 4.0, 5.0]

    def test_row_bounds_are_checked(self):
        store = VectorStore(dims=2)
        store.append([1.0, 0.0])
        with pytest.raises(IndexError):
            store.row(1)

    def test_empty_store_and_k_zero(self):
        store = VectorStore(dims=2)
        assert store.top_k([1.0, 0.0], 5) == []
        store.append([1.0, 0.0])
        assert store.top_k([1.0, 0.0], 0) == []

    def test_scores_match_exact_cosine(self):
        dims = 8
        vectors = synthetic_vectors(50, dims)
        store = VectorStore(dims=dims)
        for vector in vectors:
            store.append(vector)
        query = synthetic_vectors(1, dims, seed="q")[0]
        (best, score), *_ = store.top_k(query, 1)
        assert score == pytest.approx(exact_cosine(query, vectors[best]), abs=1e-12)

    def test_ties_break_toward_lower_row_index(self):
        store = VectorStore(dims=2)
        for _ in range(4):
            store.append([1.0, 0.0])
        store.append([0.0, 1.0])
        result = store.top_k([1.0, 0.0], 3)
        assert [index for index, _ in result] == [0, 1, 2]

    def test_duplicates_share_one_row(self):
        store = VectorStore(dims=3)
        for vector in ([1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0], [1.0, 0.0]):
            store.append(vector)
        assert (len(store), store.distinct_rows) == (4, 2)
        assert [list(store.row(entry)) for entry in range(4)] == [
            [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]

    def test_a_float32_twin_keeps_its_own_row(self):
        # Rows are keyed by their bytes: a synced entry arrives quantized, and
        # its row must hold the quantized values, not the local original's.
        exact = [1.0 / 3.0, 0.1]
        twin = quantize_to_float32(exact)
        store = VectorStore(dims=2)
        for vector in (exact, twin, twin, exact):
            store.append(vector)
        assert store.distinct_rows == 2
        assert [store.row(entry).tolist() for entry in range(4)] == [
            exact, twin, twin, exact]

    def test_a_zero_padded_copy_shares_a_row_across_widening(self):
        store = VectorStore(dims=2)
        for vector in ([1.0, 2.0], [3.0, 4.0, 5.0], [1.0, 2.0, 0.0], [1.0, 2.0]):
            store.append(vector)
        assert store.distinct_rows == 2
        assert store._row_ids[: len(store)].tolist() == [0, 1, 0, 0]
        assert store._counts[: store.distinct_rows].tolist() == [3, 1]

    def test_widening_renorms_rows_as_stored(self):
        """A store that widened holds the norms of a store built wide, so a
        snapshot reload (which replays padded rows) scores the same bits."""
        vectors = synthetic_vectors(6, 3, seed="renorm")
        narrow, wide = VectorStore(dims=3), VectorStore(dims=7)
        for store in (narrow, wide):
            for vector in vectors:
                store.append(vector)
            store.append([0.0] * 7)
        assert narrow.dims == wide.dims == 7
        assert (narrow._norms[: narrow.distinct_rows].tobytes()
                == wide._norms[: wide.distinct_rows].tobytes())

    def test_zero_vectors_of_every_width_share_one_row(self):
        store = VectorStore(dims=2)
        for width in (2, 4, 0, 3):
            store.append([0.0] * width)
        assert (len(store), store.distinct_rows) == (4, 1)
        assert store.top_k_cosines([[1.0, 0.0]], [1.0], 3) == [[0.0, 0.0, 0.0]]

    def test_top_k_cosines_repeat_a_row_by_its_count(self):
        store = VectorStore(dims=2)
        for vector in [[1.0, 0.0]] * 5 + [[0.6, 0.8]]:
            store.append(vector)
        query, norm = [0.0, 1.0], 1.0
        assert store.top_k_cosines([query], [norm], 2) == [[0.8, 0.0]]
        assert store.top_k_cosines([query], [norm], 3) == [[0.8, 0.0, 0.0]]
        assert store.top_k_cosines([query], [norm], 10) == [[0.8] + [0.0] * 5]

    def test_top_k_lists_every_entry_of_a_shared_row_lowest_first(self):
        store = VectorStore(dims=2)
        for vector in ([1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]):
            store.append(vector)
        assert store.top_k([1.0, 0.0], 3) == [(0, 1.0), (2, 1.0), (3, 1.0)]
        assert store.top_k([0.0, 1.0], 2) == [(1, 1.0), (0, 0.0)]

    def test_counts_and_row_ids_account_for_every_entry(self):
        distinct = synthetic_vectors(7, 5, seed="accounting")
        appended = [distinct[(entry * entry) % 7] for entry in range(60)]
        store = VectorStore(dims=5)
        for vector in appended:
            store.append(vector)
        rows, entries = store.distinct_rows, len(store)
        assert rows == len({tuple(vector) for vector in appended})
        assert int(store._counts[:rows].sum()) == entries
        assert (np.bincount(store._row_ids[:entries], minlength=rows).tolist()
                == store._counts[:rows].tolist())
        assert [store.row(entry).tolist() for entry in range(entries)] == appended

    def test_rows_between_gathers_one_row_per_entry(self):
        store = VectorStore(dims=2)
        for vector in ([1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]):
            store.append(vector)
        assert store.rows_between(1, 10).tolist() == [
            [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert store.rows_between(2, 2).shape == (0, 2)

    def test_query_longer_than_store_is_exact(self):
        # Components past the store's width meet only implicit zeros; the
        # full query norm must still be in the denominator.
        store = VectorStore(dims=2)
        store.append([1.0, 0.0])
        ((_, score),) = store.top_k([1.0, 0.0, 1.0], 1)
        assert score == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_zero_vectors_score_zero(self):
        store = VectorStore(dims=2)
        store.append([0.0, 0.0])
        ((_, score),) = store.top_k([1.0, 0.0], 1)
        assert score == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.sampled_from(["random", "zero", "tiny"]), min_size=1,
                      max_size=30),
        queries=st.lists(st.sampled_from(["random", "zero", "tiny"]), min_size=1,
                         max_size=6),
        dims=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    def test_cosines_equal_the_guarded_quotient(self, rows, queries, dims, seed):
        """The kernel skips its divide-by-zero guard only when every norm
        product is positive, and scores with the guarded quotient's bits
        either way: zero rows and queries, and tiny ones whose norm product
        underflows to zero, score 0."""
        def vectors(kinds, tag):
            fresh = synthetic_vectors(len(kinds), dims, seed=f"{tag}-{seed}")
            return [[0.0] * dims if kind == "zero"
                    else [component * 1e-170 for component in vector]
                    if kind == "tiny" else vector
                    for kind, vector in zip(kinds, fresh)]

        store = VectorStore(dims=dims)
        for vector in vectors(rows, "rows"):
            store.append(vector)
        matrix = np.array(vectors(queries, "queries"), dtype=np.float64)
        norms = np.array([float(np.linalg.norm(query)) for query in matrix])
        rows_held = store._matrix[: store.distinct_rows]
        scores = np.einsum("qd,rd->qr", matrix, rows_held, optimize=False)
        row_norms = np.array([float(np.linalg.norm(row)) for row in rows_held])
        denominator = row_norms[None, :] * norms[:, None]
        positive = denominator > 0.0
        expected = np.where(positive,
                            scores / np.where(positive, denominator, 1.0), 0.0)
        assert store._cosines(matrix, norms).tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 60),
        dims=st.integers(1, 24),
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 6),
    )
    def test_batch_and_full_scan_score_rows_alike(self, rows, dims, seed, batch):
        """A row's cosine has the same bits in the full scan and in a batch:
        the batched walk-step scoring relies on it."""
        store = VectorStore(dims=dims)
        for vector in synthetic_vectors(rows, dims, seed=f"rows-{seed}"):
            store.append(vector)
        queries = synthetic_vectors(batch, dims, seed=f"queries-{seed}")
        norms = [float(np.linalg.norm(query)) for query in queries]
        for query, norm, batched in zip(
            queries, norms, store.top_k_cosines(queries, norms, rows)
        ):
            full = store.top_k(query, rows)
            assert [score.hex() for score in batched] == [
                score.hex() for _, score in full
            ]
            assert store.top_k_cosines([query], [norm], 3) == [
                [score for _, score in store.top_k(query, 3)]
            ]

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.sampled_from(["random", "zero", "duplicate"]), max_size=40
        ),
        dims=st.integers(1, 16),
        widths=st.lists(st.integers(0, 24), min_size=1, max_size=6),
        k=st.integers(1, 50),
        seed=st.integers(0, 10_000),
    )
    def test_top_k_cosines_are_top_k_similarities(self, rows, dims, widths, k, seed):
        """The values-only kernel returns each query's ``top_k`` similarities
        bit for bit: zero rows, duplicate rows (ties), queries wider and
        narrower than the store, ``k >= rows`` and the empty store alike."""
        store = VectorStore(dims=dims)
        fresh = iter(synthetic_vectors(len(rows), dims, seed=f"rows-{seed}"))
        previous = [0.0] * dims
        for kind in rows:
            vector = next(fresh)
            if kind == "zero":
                vector = [0.0] * dims
            elif kind == "duplicate":
                vector = previous
            store.append(vector)
            previous = vector
        queries = [
            synthetic_vectors(1, width, seed=f"query-{seed}-{position}")[0]
            if width else []
            for position, width in enumerate(widths)
        ]
        norms = [float(np.linalg.norm(query)) for query in queries]
        kernel = store.top_k_cosines(queries, norms, k)
        assert len(kernel) == len(queries)
        for query, values in zip(queries, kernel):
            expected = [score for _, score in store.top_k(query, k)]
            assert [value.hex() for value in values] == [
                score.hex() for score in expected
            ]
            assert len(values) == min(k, len(rows))


class TestEntryBatch:
    def make_store(self, pairs):
        store = VectorStore(dims=2)
        labels = []
        for vector, label in pairs:
            store.append(vector)
            labels.append(label)
        return store, labels

    def test_list_compatibility(self):
        pairs = [([1.0, 0.0], "A"), ([0.0, 1.0], "B")]
        store, labels = self.make_store(pairs)
        batch = EntryBatch(store, labels, 0)
        assert len(batch) == 2
        assert batch == pairs
        assert [label for _, label in batch] == ["A", "B"]
        vector, label = batch[-1]
        assert (list(vector), label) == ([0.0, 1.0], "B")
        with pytest.raises(IndexError):
            batch[2]

    def test_view_is_pinned_while_the_store_grows(self):
        pairs = [([1.0, 0.0], "A")]
        store, labels = self.make_store(pairs)
        batch = EntryBatch(store, labels, 0)
        store.append([0.5, 0.5])
        assert len(batch) == 1
        assert batch == pairs

    def test_inequality(self):
        store, labels = self.make_store([([1.0, 0.0], "A")])
        batch = EntryBatch(store, labels, 0)
        assert batch != [([1.0, 0.0], "B")]
        assert batch != [([2.0, 0.0], "A")]
        assert batch != []

    def test_a_batch_over_shared_rows_reads_one_vector_per_entry(self):
        store, labels = self.make_store([
            ([1.0 / 3.0, 0.1], "A"), ([0.0, 1.0], "B"), ([1.0 / 3.0, 0.1], "C"),
            ([1.0 / 3.0, 0.1], "D")])
        assert store.distinct_rows == 2
        batch = EntryBatch(store, labels[1:], 1)
        assert batch.vectors.tolist() == [[0.0, 1.0], [1.0 / 3.0, 0.1],
                                          [1.0 / 3.0, 0.1]]
        assert batch == [([0.0, 1.0], "B"), ([1.0 / 3.0, 0.1], "C"),
                         ([1.0 / 3.0, 0.1], "D")]
        twin = quantize_to_float32([1.0 / 3.0, 0.1])
        assert batch.to_wire() == [([0.0, 1.0], "B"), (twin, "C"), (twin, "D")]

    def test_to_wire_quantizes_exactly_once(self):
        store = VectorStore(dims=2)
        store.append([1.0 / 3.0, 0.1])
        batch = EntryBatch(store, ["A"], 0)
        (vector, label), = batch.to_wire()
        assert label == "A"
        assert vector == quantize_to_float32([1.0 / 3.0, 0.1])
        # Already-quantized values survive a second trip bit-identically.
        assert quantize_to_float32(vector) == vector


# ------------------------------------------------- distinct rows vs entries

#: The embedder width of the property test; entries arrive narrower, at it
#: and wider (a wider one widens the store).
DIMS = 8
WIDTHS = (DIMS - 4, DIMS, DIMS + 4)


def _padded(vector, width):
    row = np.zeros(width, dtype=np.float64)
    row[: len(vector)] = vector
    return row


class PerEntryReference:
    """The index as one stored row per entry, computed from scratch.

    Every entry's row is its vector zero-padded to the widest width seen,
    normed as stored, and each query scores every entry with the same einsum
    contraction and guarded quotient the store uses.
    """

    def __init__(self, vectors, labels):
        width = max([DIMS] + [len(vector) for vector in vectors])
        self.width = width
        self.rows = np.array([_padded(vector, width) for vector in vectors])
        self.norms = np.array([float(np.linalg.norm(row)) for row in self.rows])
        self.labels = list(labels)

    def cosines(self, query, norm):
        query = _padded(query[: self.width], self.width)
        scores = np.einsum("qd,rd->qr", query[None, :], self.rows, optimize=False)
        denominator = self.norms[None, :] * np.array([norm])[:, None]
        positive = denominator > 0.0
        return np.where(positive,
                        scores / np.where(positive, denominator, 1.0), 0.0)[0]

    def top_k_cosines(self, query, norm, k):
        return sorted(self.cosines(query, norm).tolist(), reverse=True)[:k]

    def nearest(self, query, k):
        scores = self.cosines(query, float(np.linalg.norm(query))).tolist()
        return sorted(enumerate(scores), key=lambda pair: (-pair[1], pair[0]))[:k]

    def probability(self, query, norm, k):
        values = self.top_k_cosines(query, norm, k)
        return 1.0 / (sum(values) / len(values) + 1.0) if values else 1.0

    def wire(self, start):
        quantized = self.rows[start:].astype(np.float32).astype(np.float64)
        return list(zip(quantized.tolist(), self.labels[start:]))

    def distinct_rows(self):
        return len({row.tobytes() for row in self.rows})


#: How each entry is made: a fresh non-negative vector (as embeddings are),
#: an exact copy of an earlier entry, a copy zero-padded to another width,
#: its float32-quantized twin (as a synced entry arrives), or a zero vector.
ENTRY = st.one_of(
    st.tuples(st.just("fresh"), st.sampled_from(WIDTHS)),
    st.tuples(st.just("copy"), st.integers(0, 40)),
    st.tuples(st.just("padded"), st.integers(0, 40)),
    st.tuples(st.just("twin"), st.integers(0, 40)),
    st.tuples(st.just("zero"), st.sampled_from(WIDTHS)),
)


def _entries(plan, seed):
    vectors = []
    for position, (kind, arg) in enumerate(plan):
        if kind == "fresh" or not vectors:
            width = arg if kind == "fresh" else DIMS
            fresh = hashed_floats(f"entry-{seed}-{position}", width)
            vectors.append([abs(value) for value in fresh])
        elif kind == "zero":
            vectors.append([0.0] * arg)
        else:
            earlier = vectors[arg % len(vectors)]
            if kind == "copy":
                vectors.append(list(earlier))
            elif kind == "padded":
                vectors.append(list(earlier) + [0.0] * 4)
            else:
                vectors.append(quantize_to_float32(earlier))
    return vectors


class TestDistinctRowsMatchPerEntryRows:
    """The distinct-row store answers every question exactly as one row per
    entry would: same bits, same entries, same ties, same wire and snapshot
    bytes."""

    @settings(max_examples=60, deadline=None)
    @given(plan=st.lists(ENTRY, min_size=1, max_size=40),
           k=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_store_equals_the_per_entry_reference(self, plan, k, seed):
        vectors = _entries(plan, seed)
        labels = [f"L{position % 5}" for position in range(len(vectors))]
        index = GraphIndex(embedder=GraphEmbedder(dimensions=DIMS))
        for vector, label in zip(vectors, labels):
            index.add_embedding(vector, label)
        reference = PerEntryReference(vectors, labels)
        assert index._store.distinct_rows == reference.distinct_rows()

        queries = [vectors[0], vectors[-1], [0.0] * DIMS] + [
            [abs(value) for value in hashed_floats(f"query-{seed}-{width}", width)]
            for width in WIDTHS]
        embedded = [(np.asarray(query, dtype=np.float64),
                     float(np.linalg.norm(query))) for query in queries]
        kernel = index._store.top_k_cosines([vector for vector, _ in embedded],
                                            [norm for _, norm in embedded], k)
        for (query, norm), values in zip(embedded, kernel):
            assert [value.hex() for value in values] == [
                value.hex() for value in reference.top_k_cosines(query, norm, k)]
        assert [p.hex() for p in index.transition_probabilities(embedded, k)] == [
            reference.probability(query, norm, k).hex() for query, norm in embedded]
        for query in queries:
            assert [(entry, score.hex())
                    for entry, score in index.nearest_by_vector(query, k)] == [
                (entry, score.hex()) for entry, score in reference.nearest(query, k)]

        def wire_bytes(pairs):
            return [(np.array(vector).tobytes(), label) for vector, label in pairs]

        for start in range(len(vectors) + 1):
            assert wire_bytes(index.entries_since(start).to_wire()) == wire_bytes(
                reference.wire(start))

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "index.tqssnap")
            index.save_snapshot(path)
            restored = GraphIndex.load_snapshot(path)
        count = len(index)
        assert len(restored) == count
        assert restored._store.distinct_rows == index._store.distinct_rows
        # Mixed-width rows reload as the same bytes with the same norms.
        assert (restored._store.rows_between(0, count).tobytes()
                == index._store.rows_between(0, count).tobytes()
                == reference.rows.tobytes())
        for store in (index._store, restored._store):
            norms = store._norms[store._row_ids[:count]]
            assert norms.tobytes() == reference.norms.tobytes()
        assert restored.entries_since(0).to_wire() == index.entries_since(0).to_wire()
        for query in queries:
            assert restored.nearest_by_vector(query, k) == index.nearest_by_vector(
                query, k)


#: Past the entry count at which the index once switched to approximate
#: lookups; it stays exact at any size.
PAST_THE_OLD_THRESHOLD = 70_000


@pytest.fixture(scope="module")
def past_the_old_threshold():
    """An index of ``PAST_THE_OLD_THRESHOLD`` entries over 64 distinct
    embeddings, with the per-entry reference of the same entries."""
    distinct = [[abs(value) for value in hashed_floats(f"big-{row}", DIMS)]
                for row in range(64)]
    vectors = [distinct[(entry * 37) % 64] for entry in range(PAST_THE_OLD_THRESHOLD)]
    labels = [f"L{(entry * 37) % 64}" for entry in range(PAST_THE_OLD_THRESHOLD)]
    index = GraphIndex(embedder=GraphEmbedder(dimensions=DIMS))
    for vector, label in zip(vectors, labels):
        index.add_embedding(vector, label)
    return index, PerEntryReference(vectors, labels)


class TestPastTheOldThreshold:
    def test_a_large_index_stays_exact(self, past_the_old_threshold):
        index, reference = past_the_old_threshold
        assert len(index) == PAST_THE_OLD_THRESHOLD
        assert index._store.distinct_rows == 64
        queries = [reference.rows[5].tolist(),
                   [abs(value) for value in hashed_floats("big-query", DIMS)]]
        for query in queries:
            assert index.nearest_by_vector(query, 7) == reference.nearest(query, 7)
        embedded = [(np.asarray(query), float(np.linalg.norm(query)))
                    for query in queries]
        assert [p.hex() for p in index.transition_probabilities(embedded, 5)] == [
            reference.probability(query, norm, 5).hex() for query, norm in embedded]

    def test_a_large_index_round_trips_a_snapshot(self, past_the_old_threshold,
                                                  tmp_path):
        index, reference = past_the_old_threshold
        path = str(tmp_path / "large.tqssnap")
        index.save_snapshot(path)
        restored = GraphIndex.load_snapshot(path)
        assert len(restored) == PAST_THE_OLD_THRESHOLD
        assert restored._store.distinct_rows == 64
        assert (restored._store.rows_between(0, len(restored)).tobytes()
                == reference.rows.tobytes())
        query = [abs(value) for value in hashed_floats("big-query", DIMS)]
        assert restored.nearest_by_vector(query, 7) == index.nearest_by_vector(query, 7)


def test_the_index_has_one_exact_mode():
    """The constructor takes only the embedder, and no lookup takes a switch
    to an approximate path."""
    assert list(inspect.signature(GraphIndex).parameters) == ["embedder"]
    for lookup in (GraphIndex.nearest, GraphIndex.nearest_by_vector):
        assert "approximate" not in inspect.signature(lookup).parameters
    assert list(inspect.signature(VectorStore.top_k).parameters) == [
        "self", "vector", "k"]


def test_a_tqs_campaign_stores_one_row_per_distinct_embedding():
    """A campaign registers one entry per generated query; the store keeps
    only the distinct rows, and nothing else grows with the entries but
    their row ids."""
    config = CampaignConfig(dataset_rows=40, hours=2, queries_per_hour=30, seed=3)
    tester = build_tqs_tester(SIM_MYSQL, config)
    run_campaign_loop(tester, CampaignResult(tool="t", dbms="d",
                                             dataset=config.dataset),
                      config.hours, config.queries_per_hour)
    store = tester.kqe.index._store
    rows = store.rows_between(0, len(store))
    assert len(store) == tester.queries_generated > 0
    assert store.distinct_rows == len({row.tobytes() for row in rows})
    assert store.distinct_rows < len(store)
    assert store._matrix.shape[0] == max(256, store.distinct_rows)
