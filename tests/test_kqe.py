"""Tests for KQE: query graphs, embeddings, the graph index and the adaptive walk."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsg import DSG, DSGConfig
from repro.dsg.query_gen import GenerationConfig
from repro.errors import GenerationError
from repro.expr import ColumnRef, column, eq, lit
from repro.kqe import (
    KQE,
    GraphEmbedder,
    GraphIndex,
    IsomorphicSetCounter,
    QueryGraph,
    QueryGraphBuilder,
    alias_sample,
    are_isomorphic,
    cosine_similarity,
    is_subgraph_isomorphic,
)
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef


def make_query(dsg, join_type=JoinType.INNER, with_filter=False):
    fk = dsg.ndb.schema.foreign_keys[0]
    child, parent, key = fk.table, fk.ref_table, fk.columns[0]
    query = QuerySpec(
        base=TableRef(child, child),
        joins=[JoinStep(TableRef(parent, parent), join_type,
                        left_key=ColumnRef(child, key),
                        right_key=ColumnRef(parent, key))],
        select=[SelectItem(column(child, dsg.ndb.data_columns(child)[0]))],
    )
    if with_filter:
        target = dsg.ndb.data_columns(child)[0]
        query.where = eq(column(child, target), lit(1))
    return query


class TestQueryGraph:
    def test_build_contains_tables_and_join_edge(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        query = make_query(shopping_dsg)
        graph = builder.build(query)
        labels = graph.vertex_labels
        assert sum(1 for label in labels.values() if label == "table") == 2
        assert any(label == JoinType.INNER.value for _, _, label in graph.edges)
        assert any(label == "join column" for _, _, label in graph.edges)

    def test_filter_changes_the_graph(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        plain = builder.build(make_query(shopping_dsg))
        filtered = builder.build(make_query(shopping_dsg, with_filter=True))
        assert plain.canonical_label() != filtered.canonical_label()

    def test_join_type_changes_the_graph(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        left = builder.build(make_query(shopping_dsg, JoinType.LEFT_OUTER))
        assert inner.canonical_label() != left.canonical_label()
        assert not are_isomorphic(inner, left)

    def test_canonical_label_is_rename_invariant(self):
        g1 = QueryGraph((("a", "table"), ("b", "table")), (("a", "b", "inner"),))
        g2 = QueryGraph((("x", "table"), ("y", "table")), (("y", "x", "inner"),))
        assert g1.canonical_label() == g2.canonical_label()
        assert are_isomorphic(g1, g2)

    def test_partial_graph_extension(self, shopping_dsg):
        from repro.dsg.query_gen import CandidateExtension

        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        query = make_query(shopping_dsg)
        base = builder.build_partial(query.base.alias, [])
        extended = builder.build_partial(
            query.base.alias, [],
            CandidateExtension(query.base.alias, query.joins[0].table.alias,
                               "goodsId", JoinType.INNER),
        )
        assert base.size()[0] == 1
        assert extended.size() == (2, 1)


class TestIsomorphism:
    def test_subgraph_isomorphism(self):
        small = QueryGraph((("a", "table"), ("b", "table")), (("a", "b", "inner"),))
        large = QueryGraph(
            (("x", "table"), ("y", "table"), ("z", "table")),
            (("x", "y", "inner"), ("y", "z", "semi")),
        )
        assert is_subgraph_isomorphic(small, large)
        assert not is_subgraph_isomorphic(large, small)

    def test_counter_tracks_distinct_structures(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        counter = IsomorphicSetCounter()
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        assert counter.add(inner) is True
        assert counter.add(inner) is False
        assert counter.add(builder.build(make_query(shopping_dsg, JoinType.SEMI))) is True
        assert counter.distinct_sets == 2
        assert counter.total_graphs == 3
        assert 0 < counter.redundancy() < 1


class TestEmbeddingAndIndex:
    def test_isomorphic_graphs_embed_identically(self, shopping_dsg):
        embedder = GraphEmbedder()
        g1 = QueryGraph((("a", "table"), ("b", "table")), (("a", "b", "inner"),))
        g2 = QueryGraph((("p", "table"), ("q", "table")), (("q", "p", "inner"),))
        assert cosine_similarity(embedder.embed(g1), embedder.embed(g2)) == pytest.approx(1.0)

    def test_different_structures_are_less_similar(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        embedder = GraphEmbedder()
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        anti = builder.build(make_query(shopping_dsg, JoinType.ANTI, with_filter=True))
        similarity = cosine_similarity(embedder.embed(inner), embedder.embed(anti))
        assert similarity < 0.999

    def test_embeddings_are_normalized(self, shopping_dsg):
        import numpy as np

        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        vector = GraphEmbedder().embed(builder.build(make_query(shopping_dsg)))
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_index_nearest_returns_similar_first(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        index = GraphIndex()
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        left = builder.build(make_query(shopping_dsg, JoinType.LEFT_OUTER))
        index.add(inner)
        index.add(left)
        neighbours = index.nearest(inner, k=2)
        assert neighbours[0][1] >= neighbours[1][1]
        assert neighbours[0][1] == pytest.approx(1.0)
        assert index.contains_isomorphic(inner)
        assert index.distinct_canonical_labels() == 2

    def test_empty_index_has_no_neighbours(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        index = GraphIndex()
        assert index.nearest(builder.build(make_query(shopping_dsg))) == []
        assert len(index) == 0

    def test_label_bookkeeping_matches_set_semantics(self, shopping_dsg):
        """Regression: the persistent label counter must behave exactly like
        the old per-call ``set(self._canonical_labels)`` rebuild."""
        import numpy as np

        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        index = GraphIndex()
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        left = builder.build(make_query(shopping_dsg, JoinType.LEFT_OUTER))
        assert not index.contains_isomorphic(inner)
        index.add(inner)
        index.add(inner)
        index.add(left)
        index.add_embedding(np.ones(4), "external-label")
        index.add_embedding(np.ones(4), "external-label")
        assert index.contains_isomorphic(inner)
        assert index.contains_isomorphic(left)
        assert index.contains_label("external-label")
        assert not index.contains_label("never-added")
        # 2 graph labels + 1 external label = 3 distinct, 5 total entries.
        assert index.distinct_canonical_labels() == 3
        assert len(index) == 5

    def test_membership_does_not_scale_with_index_size(self):
        """The campaign hot path: 20k inserts, each followed by a membership
        check and a distinct-count query, must finish within a fixed budget.

        The old implementation rebuilt ``set(self._canonical_labels)`` on every
        call (O(n^2) over the campaign) and takes >5s on this workload; the
        persistent counter finishes in well under a second.
        """
        import time

        import numpy as np

        index = GraphIndex()
        vector = np.ones(8)
        start = time.perf_counter()
        for i in range(20_000):
            label = f"canonical-{i % 977}"
            index.add_embedding(vector, label)
            assert index.contains_label(label)
            index.distinct_canonical_labels()
        elapsed = time.perf_counter() - start
        assert index.distinct_canonical_labels() == 977
        assert elapsed < 2.0, (
            f"label bookkeeping took {elapsed:.2f}s for 20k inserts; "
            "membership checks are scaling with index size again"
        )

    def test_entries_since_ships_only_new_pairs(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        index = GraphIndex()
        inner = builder.build(make_query(shopping_dsg, JoinType.INNER))
        index.add(inner)
        watermark = len(index)
        left = builder.build(make_query(shopping_dsg, JoinType.LEFT_OUTER))
        index.add(left)
        entries = index.entries_since(watermark)
        assert len(entries) == 1
        vector, label = entries[0]
        assert label == left.canonical_label()
        assert index.entries_since(len(index)) == []


class TestAliasSampling:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            alias_sample([], random.Random(0))

    def test_zero_weights_fall_back_to_uniform(self):
        rng = random.Random(1)
        draws = {alias_sample([0.0, 0.0, 0.0], rng) for _ in range(50)}
        assert draws <= {0, 1, 2} and len(draws) > 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.01, 10), min_size=2, max_size=6))
    def test_distribution_tracks_weights(self, weights):
        rng = random.Random(7)
        counts = [0] * len(weights)
        for _ in range(4000):
            counts[alias_sample(weights, rng)] += 1
        total = sum(weights)
        for weight, count in zip(weights, counts):
            expected = weight / total
            assert abs(count / 4000 - expected) < 0.08


class TestKQEExplorer:
    def test_coverage_increases_after_registration(self, shopping_dsg):
        kqe = KQE(shopping_dsg.ndb.schema, rng=random.Random(3))
        builder = kqe.builder
        query = make_query(shopping_dsg)
        graph = builder.build(query)
        before = kqe.coverage(graph)
        kqe.register(query)
        after = kqe.coverage(graph)
        assert before == 0.0
        assert after > before
        assert kqe.transition_probability(graph) < 1.0

    def test_register_counts_isomorphic_sets(self, shopping_dsg):
        kqe = KQE(shopping_dsg.ndb.schema, rng=random.Random(4))
        query = make_query(shopping_dsg)
        novel_first = kqe.register(query)
        novel_second = kqe.register(query)
        assert novel_first is True and novel_second is False
        assert kqe.explored_isomorphic_sets == 1
        assert kqe.explored_graphs == 2

    def test_register_counts_the_callers_label(self, shopping_dsg):
        kqe = KQE(shopping_dsg.ndb.schema, rng=random.Random(4))
        query = make_query(shopping_dsg)
        label = kqe.builder.build(query).canonical_label()
        assert kqe.register(query, label) is True
        assert kqe.register(query) is False
        assert kqe.register(query, "another label") is True
        assert kqe.counter.labels == {label, "another label"}
        assert len(kqe.index) == 3

    def test_chooser_penalizes_already_explored_structures(self, shopping_dsg):
        """The mechanism of Eq. 2/3: repeated structures get lower probability."""
        kqe = KQE(shopping_dsg.ndb.schema, rng=random.Random(5))
        query = make_query(shopping_dsg, JoinType.INNER)
        for _ in range(10):
            kqe.register(query)
        explored_skeleton = kqe.builder.build_partial(query.base.alias, query.joins)
        fresh_query = make_query(shopping_dsg, JoinType.ANTI)
        fresh_skeleton = kqe.builder.build_partial(fresh_query.base.alias,
                                                   fresh_query.joins)
        assert kqe.coverage(explored_skeleton) > kqe.coverage(fresh_skeleton)
        assert (kqe.transition_probability(explored_skeleton)
                < kqe.transition_probability(fresh_skeleton))

    def test_kqe_guided_generation_does_not_hurt_diversity(self):
        """KQE guidance must stay within a few percent of unguided diversity.

        At laptop scale the structural space is far from saturated, so the large
        diversity gap of Table 5 does not materialize; EXPERIMENTS.md documents
        this deviation.  The invariant tested here is that the adaptive walk
        never *collapses* diversity.
        """
        from repro.kqe.isomorphism import IsomorphicSetCounter
        from repro.kqe.query_graph import QueryGraphBuilder

        budget = 60
        results = {}
        for use_kqe in (True, False):
            dsg = DSG(DSGConfig(dataset="tpch", dataset_rows=100, seed=51))
            kqe = KQE(dsg.ndb.schema, rng=random.Random(51))
            builder = QueryGraphBuilder(dsg.ndb.schema)
            counter = IsomorphicSetCounter()
            for _ in range(budget):
                chooser = kqe.extension_chooser if use_kqe else None
                try:
                    query = dsg.generate_query(extension_chooser=chooser)
                except Exception:
                    continue
                counter.add(builder.build(query))
                if use_kqe:
                    kqe.register(query)
            results[use_kqe] = counter.distinct_sets
        assert results[True] >= 0.8 * results[False]


#: Set operations, scalar subqueries and CTEs at the diff-widened campaign's
#: probabilities, so the corpus holds compound and CTE graphs too.
WIDENED_GRAMMAR = dict(
    setop_probability=0.4, scalar_subquery_probability=0.3, cte_probability=0.25
)

#: sha256 of the corpus below.  Labels, embeddings and KQE draws feed campaign
#: fingerprints and snapshots, so a speed-up must leave this unchanged; a
#: deliberate format change re-pins it.
PINNED_CORPUS_DIGEST = (
    "0269ee3c1e882cef30a4c88e36796cc218c75427aa576feb73fd79f32f34c6bf"
)


def kqe_corpus_digest():
    """Digest of seeded KQE-guided generation and everything it labels.

    Four runs (shopping and tpch, plain and widened grammar), each with its
    own DSG and KQE.  Every walk step adds the index of the candidate the
    chooser picked (-1 when it stopped the walk); every generated query adds
    the canonical label and embedding bytes of its full graph and of its join
    skeleton, then is registered so later draws see it.
    """
    digest = hashlib.sha256()
    graphs = 0
    for dataset in ("shopping", "tpch"):
        for grammar in ({}, WIDENED_GRAMMAR):
            dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=30, seed=5,
                                generation=GenerationConfig(**grammar)))
            kqe = KQE(dsg.ndb.schema, rng=random.Random(19))

            def chooser(base, steps, candidates, kqe=kqe):
                choice = kqe.extension_chooser(base, steps, candidates)
                index = -1 if choice is None else next(
                    i for i, candidate in enumerate(candidates)
                    if candidate is choice)
                digest.update(f"choice:{index};".encode())
                return choice

            for _ in range(150):
                try:
                    query = dsg.generate_statement(extension_chooser=chooser)
                except GenerationError as error:
                    digest.update(f"error:{type(error).__name__};".encode())
                    continue
                skeleton = kqe.builder.build_partial(query.base.alias, query.joins)
                for graph in (kqe.builder.build(query), skeleton):
                    digest.update(graph.canonical_label().encode())
                    digest.update(kqe.embedder.embed(graph).tobytes())
                    graphs += 1
                kqe.register(query)
    return digest.hexdigest(), graphs


def renamed(graph, mapping):
    """A copy of *graph* with every vertex id passed through *mapping*."""
    return QueryGraph(
        tuple((mapping[vertex], label) for vertex, label in graph.vertices),
        tuple((mapping[left], mapping[right], label)
              for left, right, label in graph.edges),
    )


def guided_draws(dataset, kqe_seed):
    """Chooser draws and labels of a seeded KQE-guided generation run."""
    dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=30, seed=3))
    kqe = KQE(dsg.ndb.schema, rng=random.Random(kqe_seed))
    draws = []

    def chooser(base, steps, candidates):
        choice = kqe.extension_chooser(base, steps, candidates)
        draws.append(None if choice is None else candidates.index(choice))
        return choice

    for _ in range(40):
        try:
            query = dsg.generate_query(extension_chooser=chooser)
        except GenerationError:
            draws.append("rejected")
            continue
        label = kqe.builder.build(query).canonical_label()
        kqe.register(query, label)
        draws.append(label)
    return draws, kqe


class TestRefinementWithoutNetworkx:
    def test_parallel_edges_merge_like_networkx(self, shopping_dsg):
        """A column both filtered and projected gives two plan-iterative edges
        between one vertex pair; adjacency() merges them like to_networkx()."""
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        graph = builder.build(make_query(shopping_dsg, with_filter=True))
        adjacency = graph.adjacency()
        nx_graph = graph.to_networkx()
        merged = {
            frozenset((left, right)): data["label"]
            for left, right, data in nx_graph.edges(data=True)
        }
        assert merged == {
            frozenset((vertex, other)): label
            for vertex, neighbours in adjacency.items()
            for other, label in neighbours.items()
        }
        assert "filter+projection" in merged.values()
        assert len(merged) < len(graph.edges)
        assert set(adjacency) == set(nx_graph.nodes)

    def test_label_and_embedding_survive_renaming(self, shopping_dsg):
        builder = QueryGraphBuilder(shopping_dsg.ndb.schema)
        graph = builder.build(make_query(shopping_dsg, with_filter=True))
        vertices = [vertex for vertex, _ in graph.vertices]
        copy = renamed(graph, {
            vertex: f"v{index}"
            for index, vertex in enumerate(reversed(vertices))
        })
        assert copy != graph
        assert copy.canonical_label() == graph.canonical_label()
        assert (GraphEmbedder().embed(copy).tobytes()
                == GraphEmbedder().embed(graph).tobytes())
        assert are_isomorphic(copy, graph)


class TestEmbeddingMemo:
    def test_equal_graphs_share_one_read_only_array(self):
        embedder = GraphEmbedder()
        first = QueryGraph((("a", "table"), ("b", "table")), (("a", "b", "inner"),))
        second = QueryGraph(tuple(list(first.vertices)), tuple(list(first.edges)))
        assert first == second and first is not second
        vector = embedder.embed(first)
        assert embedder.embed(second) is vector
        with pytest.raises(ValueError):
            vector[0] = 1.0
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_memo_stops_growing_at_its_limit(self, monkeypatch):
        from repro.kqe import embedding

        monkeypatch.setattr(embedding, "EMBED_MEMO_LIMIT", 3)
        embedder = GraphEmbedder()
        graphs = [
            QueryGraph(tuple((f"t{i}", "table") for i in range(size)),
                       tuple((f"t{i}", f"t{i + 1}", "inner")
                             for i in range(size - 1)))
            for size in range(1, 6)
        ]
        vectors = [embedder.embed(graph) for graph in graphs]
        assert len(embedder._memo) == 3
        # Past the limit a graph is embedded afresh each time: equal bytes,
        # a new (still read-only) array.
        again = embedder.embed(graphs[-1])
        assert again is not vectors[-1]
        assert again.tobytes() == vectors[-1].tobytes()
        assert not again.flags.writeable
        assert embedder.embed(graphs[0]) is vectors[0]
        for graph, vector in zip(graphs, vectors):
            assert GraphEmbedder().embed(graph).tobytes() == vector.tobytes()

    def test_draws_do_not_depend_on_another_instance(self):
        """Each KQE memoizes in its own embedder, so a seeded run draws the
        same whether or not another KQE ran first in the process."""
        alone, first = guided_draws("shopping", kqe_seed=23)
        guided_draws("tpch", kqe_seed=5)
        guided_draws("shopping", kqe_seed=29)
        after_others, second = guided_draws("shopping", kqe_seed=23)
        assert after_others == alone
        assert any(isinstance(draw, int) for draw in alone)
        assert first.embedder._memo is not second.embedder._memo
        assert list(first.embedder._memo) == list(second.embedder._memo)


class TestPinnedCorpus:
    def test_labels_embeddings_and_draws_are_pinned(self):
        """1200 labels and embeddings plus every chooser draw, byte-identical
        to the recorded corpus."""
        digest, graphs = kqe_corpus_digest()
        assert graphs == 1200
        assert digest == PINNED_CORPUS_DIGEST
