"""KQE: Knowledge-guided Query space Exploration (paper §4)."""

from repro.kqe.embedding import GraphEmbedder, cosine_similarity
from repro.kqe.explorer import KQE, KQEConfig, alias_sample
from repro.kqe.graph_index import GraphIndex
from repro.kqe.isomorphism import IsomorphicSetCounter
from repro.kqe.query_graph import QueryGraph, QueryGraphBuilder
from repro.kqe.snapshot import SnapshotBatch, SnapshotWriter, read_snapshot
from repro.kqe.store import EntryBatch, VectorStore, quantize_to_float32

__all__ = [
    "EntryBatch",
    "GraphEmbedder",
    "GraphIndex",
    "IsomorphicSetCounter",
    "KQE",
    "KQEConfig",
    "QueryGraph",
    "QueryGraphBuilder",
    "SnapshotBatch",
    "SnapshotWriter",
    "VectorStore",
    "alias_sample",
    "cosine_similarity",
    "quantize_to_float32",
    "read_snapshot",
]
