"""Structural graph embeddings (paper §4).

The paper uses a similarity-oriented GNN embedding so that isomorphic or
structurally similar query graphs land close together in the embedding space.
Training a neural network is neither possible offline nor necessary for that
property: a Weisfeiler–Lehman feature map — hash the multiset of refined vertex
colours into a fixed-size vector — gives the same guarantee deterministically:
isomorphic graphs produce identical vectors, and graphs differing in a few
labels/edges produce vectors at small cosine distance.

The refinement runs directly over :meth:`QueryGraph.adjacency` (networkx is
used only for the VF2 checks of :mod:`repro.kqe.isomorphism`).  The adaptive
walk scores the same few partial graphs over and over, so each embedder
memoizes its vectors, with their norms, by graph content.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.kqe.query_graph import QueryGraph

DEFAULT_DIMENSIONS = 64

#: Most graphs one embedder memoizes; past it, new graphs are embedded afresh
#: on every call.  A campaign's walk meets a few hundred distinct graphs.  The
#: embedder's token -> bucket memo and the graph index's skeleton -> label
#: memo stop growing at the same size.
EMBED_MEMO_LIMIT = 1 << 14


def _stable_bucket(token: str, dimensions: int) -> int:
    """Deterministic hash bucket for a WL colour token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimensions


class GraphEmbedder:
    """Weisfeiler–Lehman feature hashing of query graphs."""

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS, iterations: int = 2) -> None:
        if dimensions <= 0:
            raise ValueError("embedding dimensionality must be positive")
        self.dimensions = dimensions
        self.iterations = iterations
        # Both memos are bounded by EMBED_MEMO_LIMIT: graph content ->
        # (vector, norm), and WL colour token -> hash bucket (the tokens
        # recur across graphs, so blake2b runs once per distinct token).
        self._memo: Dict[Tuple[tuple, tuple], Tuple[np.ndarray, float]] = {}
        self._buckets: Dict[str, int] = {}

    def _wl_colors(self, graph: QueryGraph) -> List[str]:
        adjacency = graph.adjacency()
        colors: Dict[str, str] = dict(graph.vertices)
        tokens: List[str] = list(colors.values())
        for _ in range(self.iterations):
            refreshed: Dict[str, str] = {}
            for node, color in colors.items():
                neighbourhood = sorted(
                    f"{label}~{colors[other]}"
                    for other, label in adjacency[node].items()
                )
                refreshed[node] = f"{color}::{'|'.join(neighbourhood)}"
            colors = refreshed
            tokens.extend(colors.values())
        return tokens

    def embed(self, graph: QueryGraph) -> np.ndarray:
        """Embed one query graph as an L2-normalized, read-only vector.

        The vector is a pure function of the graph's vertices and edges, so
        equal graphs share one memoized array; it is read-only so no caller
        can corrupt the memo.
        """
        return self.embed_with_norm(graph)[0]

    def embed_with_norm(self, graph: QueryGraph) -> Tuple[np.ndarray, float]:
        """:meth:`embed`'s vector with its norm, ``float(np.linalg.norm(vector))``.

        The norm is taken once per memoized graph, so scoring a memoized
        graph again never re-derives it.
        """
        key = (graph.vertices, graph.edges)
        embedded = self._memo.get(key)
        if embedded is not None:
            return embedded
        buckets = self._buckets
        vector = np.zeros(self.dimensions, dtype=np.float64)
        for token in self._wl_colors(graph):
            bucket = buckets.get(token)
            if bucket is None:
                bucket = _stable_bucket(token, self.dimensions)
                if len(buckets) < EMBED_MEMO_LIMIT:
                    buckets[token] = bucket
            vector[bucket] += 1.0
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        vector.flags.writeable = False
        embedded = (vector, float(np.linalg.norm(vector)))
        if len(self._memo) < EMBED_MEMO_LIMIT:
            self._memo[key] = embedded
        return embedded

    def embed_many(self, graphs: Iterable[QueryGraph]) -> np.ndarray:
        """Embed several graphs into a (n, dimensions) matrix."""
        vectors = [self.embed(graph) for graph in graphs]
        if not vectors:
            return np.zeros((0, self.dimensions))
        return np.vstack(vectors)


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors (0 when either is zero)."""
    denominator = float(np.linalg.norm(left) * np.linalg.norm(right))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(left, right) / denominator)
