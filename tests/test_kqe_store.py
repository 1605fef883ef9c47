"""Tests for the matrix-backed vector store and the LSH prefilter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CampaignSpec, run_campaign
from repro.kqe import lsh as lsh_module
from repro.kqe.graph_index import GraphIndex, lsh_seed_material
from repro.kqe.lsh import SignRandomProjectionLSH, hyperplane_stream
from repro.kqe.store import EntryBatch, VectorStore, quantize_to_float32


def synthetic_vectors(count, dims, seed="test-vectors"):
    """Deterministic synthetic embeddings (no ambient RNG in the test either)."""
    flat = hyperplane_stream(seed, count * dims)
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

    def test_empty_store_and_empty_candidates(self):
        store = VectorStore(dims=2)
        assert store.top_k([1.0, 0.0], 5) == []
        store.append([1.0, 0.0])
        assert store.top_k([1.0, 0.0], 0) == []
        assert store.top_k([1.0, 0.0], 5, candidates=[]) == []

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

    def test_candidate_restriction(self):
        store = VectorStore(dims=2)
        for vector in ([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
            store.append(vector)
        result = store.top_k([1.0, 0.0], 2, candidates=[1, 2])
        assert [index for index, _ in result] == [1, 2]

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

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 60),
        dims=st.integers(1, 24),
        seed=st.integers(0, 10_000),
        picks=st.lists(st.integers(0, 59), min_size=1, max_size=20, unique=True),
        batch=st.integers(1, 6),
    )
    def test_subset_batch_and_full_scan_score_rows_alike(
        self, rows, dims, seed, picks, batch
    ):
        """A row's cosine has the same bits in the full scan, in a candidate
        subset and in a batch — the batched walk-step scoring relies on it."""
        store = VectorStore(dims=dims)
        for vector in synthetic_vectors(rows, dims, seed=f"rows-{seed}"):
            store.append(vector)
        queries = synthetic_vectors(batch, dims, seed=f"queries-{seed}")
        subset = sorted(pick for pick in picks if pick < rows) or [0]
        norms = [float(np.linalg.norm(query)) for query in queries]
        for query, norm, batched in zip(
            queries, norms, store.top_k_cosines(queries, norms, rows)
        ):
            full = store.top_k(query, rows)
            assert [score.hex() for score in batched] == [
                score.hex() for _, score in full
            ]
            scores = {index: score.hex() for index, score in full}
            for index, score in store.top_k(query, rows, candidates=subset):
                assert score.hex() == scores[index]
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

    def test_to_wire_quantizes_exactly_once(self):
        store = VectorStore(dims=2)
        store.append([1.0 / 3.0, 0.1])
        batch = EntryBatch(store, ["A"], 0)
        (vector, label), = batch.to_wire()
        assert label == "A"
        assert vector == quantize_to_float32([1.0 / 3.0, 0.1])
        # Already-quantized values survive a second trip bit-identically.
        assert quantize_to_float32(vector) == vector

class TestHyperplaneStream:
    def test_deterministic_and_bounded(self):
        first = hyperplane_stream("seed", 100)
        assert first == hyperplane_stream("seed", 100)
        assert first != hyperplane_stream("other", 100)
        assert all(-1.0 <= value < 1.0 for value in first)

    def test_prefix_stability(self):
        # Asking for more floats must not change the ones already streamed.
        assert hyperplane_stream("seed", 200)[:100] == hyperplane_stream("seed", 100)


class TestSignRandomProjectionLSH:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SignRandomProjectionLSH(dims=0)
        with pytest.raises(ValueError):
            SignRandomProjectionLSH(dims=4, bits=31)
        with pytest.raises(ValueError):
            SignRandomProjectionLSH(dims=4, tables=0)

    def test_same_config_builds_identical_tables(self):
        dims = 16
        vectors = synthetic_vectors(100, dims)
        first = SignRandomProjectionLSH(dims=dims, seed_material="kqe-lsh:v1:16:2")
        second = SignRandomProjectionLSH(dims=dims, seed_material="kqe-lsh:v1:16:2")
        for index, vector in enumerate(vectors):
            first.insert(index, vector)
            second.insert(index, vector)
        for query in synthetic_vectors(10, dims, seed="queries"):
            assert first.candidates(query) == second.candidates(query)

    def test_insert_matrix_matches_per_row_inserts(self):
        dims = 16
        vectors = synthetic_vectors(64, dims)
        one_by_one = SignRandomProjectionLSH(dims=dims)
        bulk = SignRandomProjectionLSH(dims=dims)
        for index, vector in enumerate(vectors):
            one_by_one.insert(index, vector)
        bulk.insert_matrix(0, np.asarray(vectors))
        assert len(bulk) == len(one_by_one) == 64
        for query in synthetic_vectors(10, dims, seed="queries"):
            assert bulk.candidates(query) == one_by_one.candidates(query)

    def test_self_query_finds_itself(self):
        dims = 16
        vectors = synthetic_vectors(200, dims)
        lsh = SignRandomProjectionLSH(dims=dims)
        for index, vector in enumerate(vectors):
            lsh.insert(index, vector)
        # A stored vector collides with itself in every table: perfect recall
        # on exact matches, the floor any prefilter must clear.
        for index, vector in enumerate(vectors):
            assert index in lsh.candidates(vector)


class TestApproximateNearest:
    def make_index(self, count, lsh_min_size):
        index = GraphIndex(lsh_min_size=lsh_min_size)
        dims = index.embedder.dimensions
        for position, vector in enumerate(synthetic_vectors(count, dims)):
            index.add_embedding(vector, f"L{position}")
        return index

    def test_small_indexes_use_the_exact_scan(self):
        index = self.make_index(64, lsh_min_size=4096)
        query = synthetic_vectors(1, index.embedder.dimensions, seed="q")[0]
        assert index.nearest_by_vector(query, k=3) == index.nearest_by_vector(
            query, k=3, approximate=False
        )

    def test_lsh_engages_and_finds_exact_matches(self):
        index = self.make_index(300, lsh_min_size=100)
        dims = index.embedder.dimensions
        hits = 0
        for position, vector in enumerate(synthetic_vectors(300, dims)):
            result = index.nearest_by_vector(vector, k=1)
            if result and result[0][0] == position:
                hits += 1
        # Self-queries collide with themselves in every table; the only misses
        # allowed are ties (distinct rows with identical similarity).
        assert hits >= 295


class TestLazyTables:
    """The LSH tables are built when the index first outgrows lsh_min_size."""

    def grown(self, lsh_min_size, vectors):
        index = GraphIndex(lsh_min_size=lsh_min_size)
        for position, vector in enumerate(vectors):
            index.add_embedding(vector, f"L{position}")
        return index

    def mixed_width_vectors(self, count, dims):
        """Non-negative like real embeddings; some rows short, some wider than
        the tables (a wider row also widens the store)."""
        vectors = []
        for position, vector in enumerate(synthetic_vectors(count, dims + 8)):
            width = dims
            if position % 7 == 0:
                width = dims - 8
            elif position % 5 == 0:
                width = dims + 8
            vectors.append([abs(component) for component in vector[:width]])
        return vectors

    def test_tqs_campaign_never_builds_hyperplanes(self, monkeypatch):
        calls = []
        stream = lsh_module.hyperplane_stream

        def counting_stream(seed_material, count):
            calls.append(count)
            return stream(seed_material, count)

        monkeypatch.setattr(lsh_module, "hyperplane_stream", counting_stream)
        result = run_campaign(CampaignSpec(kind="tqs", dataset_rows=40, hours=2,
                                           queries_per_hour=6, seed=3))
        assert result.final.queries_generated > 0
        assert calls == []
        # The counter does see the build once an index outgrows its threshold.
        index = self.grown(2, synthetic_vectors(3, GraphIndex().embedder.dimensions))
        assert index._lsh is not None
        assert len(calls) == 1

    def test_lazy_tables_equal_eager_tables(self):
        dims = GraphIndex().embedder.dimensions
        vectors = self.mixed_width_vectors(300, dims)
        lazy = self.grown(100, vectors)
        eager = SignRandomProjectionLSH(
            dims=dims, seed_material=lsh_seed_material(lazy.embedder))
        for position, vector in enumerate(vectors):
            eager.insert(position, vector)
        assert lazy._lsh._buckets == eager._buckets
        # lsh_min_size=0 builds the tables at the first row, then inserts.
        eager_index = self.grown(0, vectors)
        for query in self.mixed_width_vectors(30, dims)[::3] + vectors[:10]:
            assert lazy._lsh.candidates(query) == eager.candidates(query)
            assert lazy.nearest_by_vector(query, k=5) == eager_index.nearest_by_vector(
                query, k=5)

    def test_no_tables_at_or_below_the_threshold(self):
        index = self.grown(100, synthetic_vectors(100, 64))
        assert index._lsh is None
        index.add_embedding(synthetic_vectors(1, 64, seed="one more")[0])
        assert index._lsh is not None and len(index._lsh) == 101

    def test_snapshot_past_the_threshold_round_trips(self, tmp_path):
        # Full-width rows, as every embedder-fed index holds: a row added
        # narrower than the store's final width is normed unpadded, but
        # replayed padded, which can move its norm's last bit.
        dims = GraphIndex().embedder.dimensions
        index = self.grown(100, [[abs(component) for component in vector]
                                 for vector in synthetic_vectors(250, dims)])
        path = str(tmp_path / "index.snapshot")
        index.save_snapshot(path)
        restored = GraphIndex.load_snapshot(path, lsh_min_size=100)
        assert restored._lsh._buckets == index._lsh._buckets
        size = len(index)
        assert (restored._store.rows_between(0, size).tobytes()
                == index._store.rows_between(0, size).tobytes())
        assert restored.entries_since(0).to_wire() == index.entries_since(0).to_wire()
        for query in synthetic_vectors(20, dims, seed="queries"):
            assert restored.nearest_by_vector(query, k=5) == index.nearest_by_vector(
                query, k=5)


class TestLegacyBucketSkew:
    """Regression: the pre-LSH bucketing degenerated on realistic embeddings.

    The old index bucketed each vector by ``argmax(vector) % bucket_count``.
    KQE embeddings of real query graphs share their heaviest feature (the
    ubiquitous join-skeleton tokens), so nearly everything landed in one
    bucket and "approximate" lookups degenerated to full scans of it.  This
    test documents that skew and pins the LSH replacement's spread.
    """

    def test_argmax_bucketing_collapses_on_shared_dominant_features(self):
        dims = 16
        bucket_count = 16
        # Every vector shares one dominant feature (so argmax is constant)
        # but the rest of the geometry genuinely differs between vectors.
        base = [0.0] * dims
        base[3] = 2.0
        vectors = []
        for noise in synthetic_vectors(200, dims, seed="skew"):
            vectors.append([b + 0.9 * n for b, n in zip(base, noise)])

        legacy_counts = [0] * bucket_count
        for vector in vectors:
            argmax = max(range(dims), key=lambda i: vector[i])
            legacy_counts[argmax % bucket_count] += 1
        # The legacy scheme: one bucket holds (nearly) every entry.
        assert max(legacy_counts) >= 0.99 * len(vectors)

        lsh = SignRandomProjectionLSH(dims=dims, tables=4, bits=8)
        for index, vector in enumerate(vectors):
            lsh.insert(index, vector)
        largest = max(
            max(len(rows) for rows in table.values()) for table in lsh._buckets
        )
        # Sign projections split on the *noise*, not the shared dominant
        # component, so no single bucket degenerates into a full scan.
        assert largest <= 0.5 * len(vectors)
