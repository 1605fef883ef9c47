"""The embedding-based graph index GI (paper §4).

The paper uses HD-Index for approximate KNN search over query-graph
embeddings, because its index grows with the campaign.  Here the index grows
by one entry per generated query, but almost every entry repeats a join
shape already seen, so the embeddings live in one contiguous float64 matrix
with one row per distinct vector (:mod:`repro.kqe.store`), and exact KNN is a
single vectorized cosine over those rows.
:meth:`GraphIndex.transition_probabilities` scores every ``(vector, norm)``
pair of a walk step with one product.  There is no approximate mode: the
scan grows with the distinct join shapes a campaign meets, not with its
length.

The whole index round-trips through the checksummed snapshot log of
:mod:`repro.kqe.snapshot` (``save_snapshot``/``load_snapshot``), which is
what lets the distributed server restart into a bit-identical state.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SnapshotError
from repro.kqe.embedding import GraphEmbedder
from repro.kqe.query_graph import QueryGraph
from repro.kqe.store import EntryBatch, VectorStore


class GraphIndex:
    """Exact KNN index over query-graph embeddings."""

    def __init__(self, embedder: Optional[GraphEmbedder] = None) -> None:
        self.embedder = embedder or GraphEmbedder()
        self._store = VectorStore(dims=self.embedder.dimensions)
        self._canonical_labels: List[str] = []
        # Persistent multiset of canonical labels: membership checks and the
        # distinct-label count sit on the campaign hot path (once per generated
        # query), so they must not rebuild set(self._canonical_labels) — that
        # turns a campaign into O(n^2) over the index size.
        self._label_counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self._store)

    # --------------------------------------------------------------- insertion

    def add(self, graph: QueryGraph) -> Any:
        """Insert a query graph; returns its embedding."""
        vector = self.embedder.embed(graph)
        self.add_embedding(vector, graph.canonical_label())
        return vector

    def add_embedding(self, vector: Sequence[float], canonical_label: str = "") -> None:
        """Insert a pre-computed embedding (used by the parallel-search driver)."""
        self._store.append(vector)
        self._canonical_labels.append(canonical_label)
        self._label_counts[canonical_label] += 1

    def entries_since(self, start: int) -> EntryBatch:
        """The (embedding, canonical label) pairs inserted at position >= *start*.

        The parallel campaign runner uses this to ship each worker's newly
        explored query graphs to the coordinator between synchronization
        rounds.  Returned as an :class:`~repro.kqe.store.EntryBatch` view into
        the store — list-compatible, one vector per entry, but no row is
        gathered until the batch is actually read (or shipped via
        ``to_wire()``).
        """
        return EntryBatch(self._store, self._canonical_labels[start:], start)

    # ------------------------------------------------------------------ search

    def nearest(self, graph: QueryGraph, k: int = 5) -> List[Tuple[int, float]]:
        """K nearest neighbours of *graph* as (index, cosine similarity) pairs."""
        return self.nearest_by_vector(self.embedder.embed(graph), k=k)

    def nearest_by_vector(
        self, vector: Sequence[float], k: int = 5
    ) -> List[Tuple[int, float]]:
        """K nearest neighbours of an embedding vector, ties to the lower index."""
        return self._store.top_k(vector, k)

    def transition_probabilities(
        self, embedded: Sequence[Tuple[np.ndarray, float]], k: int = 5
    ) -> List[float]:
        """Eq. 3 for each ``(vector, norm)`` pair: ``1 / (coverage + 1)``, where
        the coverage (Eq. 2) is the mean cosine of the vector's *k* nearest
        neighbours.

        The pairs are what :meth:`GraphEmbedder.embed_with_norm` returns; KQE
        memoizes them by join shape, so a walk step builds no graph for a
        shape it has scored before.  Coverage reads only similarity values,
        so one values-only kernel (``VectorStore.top_k_cosines``) scores every
        vector against every distinct row.  The coverage is the mean over the
        multiset of the k best entries' cosines, so a row shared by several
        entries counts once per entry, and the values equal a ``nearest``
        call per graph bit for bit.
        """
        similarities = self._store.top_k_cosines(
            [vector for vector, _ in embedded], [norm for _, norm in embedded], k)
        # Each coverage is summed in rank order, as KQE.coverage sums one
        # nearest() result; no neighbour means coverage 0.
        return [1.0 / (sum(values) / len(values) + 1.0) if values else 1.0
                for values in similarities]

    # -------------------------------------------------------------- statistics

    def distinct_canonical_labels(self) -> int:
        """Number of distinct isomorphism classes inserted so far."""
        return len(self._label_counts)

    def contains_isomorphic(self, graph: QueryGraph) -> bool:
        """True when an isomorphic graph (same canonical label) was already added."""
        return graph.canonical_label() in self._label_counts

    def contains_label(self, canonical_label: str) -> bool:
        """Membership check by pre-computed canonical label."""
        return canonical_label in self._label_counts

    # ------------------------------------------------------------- persistence

    def save_snapshot(self, path: str) -> None:
        """Write the whole index to *path* as one checksummed snapshot batch."""
        from repro.kqe import snapshot as snapshot_log

        with obs.span("index.snapshot.save"):
            writer = snapshot_log.SnapshotWriter.create(path, self.snapshot_header())
            try:
                count = len(self._store)
                writer.append(self._store.rows_between(0, count).tolist(),
                              list(self._canonical_labels), {"count": count})
            finally:
                writer.close()

    def snapshot_header(self) -> dict:
        return {
            "kind": "kqe-graph-index",
            "version": 1,
            "embedder": {
                "dimensions": self.embedder.dimensions,
                "iterations": self.embedder.iterations,
            },
        }

    @classmethod
    def load_snapshot(
        cls, path: str, embedder: Optional[GraphEmbedder] = None
    ) -> "GraphIndex":
        """Rebuild an index from a snapshot written by :meth:`save_snapshot`.

        Replays insertions in their logged order, so the restored index is
        bit-identical to the one that was saved, down to which entries share
        a row.
        """
        from repro.kqe import snapshot as snapshot_log

        with obs.span("index.snapshot.restore"):
            header, batches, _ = snapshot_log.read_snapshot(path)
            if header.get("kind") != "kqe-graph-index":
                raise SnapshotError(
                    f"{path!r} holds a {header.get('kind')!r} snapshot, "
                    "not a kqe-graph-index"
                )
            config = header.get("embedder") or {}
            if embedder is None:
                embedder = GraphEmbedder(
                    dimensions=int(config.get("dimensions", 64)),
                    iterations=int(config.get("iterations", 2)),
                )
            index = cls(embedder=embedder)
            for batch in batches:
                for vector, label in zip(batch.vectors, batch.labels):
                    index.add_embedding(vector, label)
            return index
