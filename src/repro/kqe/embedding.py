"""Structural graph embeddings (paper §4).

The paper uses a similarity-oriented GNN embedding so that isomorphic or
structurally similar query graphs land close together in the embedding space.
Training a neural network is neither possible offline nor necessary for that
property: a Weisfeiler–Lehman feature map — hash the multiset of refined vertex
colours into a fixed-size vector — gives the same guarantee deterministically:
isomorphic graphs produce identical vectors, and graphs differing in a few
labels/edges produce vectors at small cosine distance.

The refinement runs directly over :meth:`QueryGraph.adjacency`.  WL tokens carry
labels only, never vertex ids, so graphs equal up to vertex renaming embed to
the same bytes with the same norm bits.  The embedder memoizes only WL token ->
hash bucket; the adaptive walk scores the same few join skeletons over and over
under different table names, so :class:`~repro.kqe.explorer.KQE` memoizes each
``(vector, norm)`` pair by the skeleton's alias-free join shape.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Tuple

import numpy as np

from repro.kqe.query_graph import QueryGraph

DEFAULT_DIMENSIONS = 64

#: Most entries any KQE memo holds; past it, a new key is computed afresh on
#: every call.  A campaign's walk meets a few hundred distinct join shapes.
#: The embedder's token -> bucket memo and KQE's shape -> (vector, norm) and
#: shape -> label memos all stop growing at this size.
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
        # WL colour token -> hash bucket, bounded by EMBED_MEMO_LIMIT: the
        # tokens recur across graphs, so blake2b runs once per distinct token.
        self._buckets: Dict[str, int] = {}

    def _wl_colors(self, graph: QueryGraph) -> List[str]:
        adjacency = graph.adjacency()
        colors: Dict[str, str] = dict(graph.vertices)
        tokens: List[str] = list(colors.values())
        for _ in range(self.iterations):
            colors = {
                node: color + "::" + "|".join(sorted([
                    label + "~" + colors[other]
                    for other, label in adjacency[node].items()
                ]))
                for node, color in colors.items()
            }
            tokens.extend(colors.values())
        return tokens

    def embed(self, graph: QueryGraph) -> np.ndarray:
        """Embed one query graph as an L2-normalized, read-only vector.

        The vector is a pure function of the graph's labels and structure,
        not of its vertex ids; it is read-only so a caller's memo of it
        cannot be corrupted.
        """
        return self.embed_with_norm(graph)[0]

    def embed_with_norm(self, graph: QueryGraph) -> Tuple[np.ndarray, float]:
        """:meth:`embed`'s vector with its norm, ``float(np.linalg.norm(vector))``.

        Nothing is memoized per graph here: a caller that scores a graph
        again keeps the pair (KQE keys it by the skeleton's join shape).
        """
        buckets = self._buckets
        counts = [0.0] * self.dimensions
        for token in self._wl_colors(graph):
            bucket = buckets.get(token)
            if bucket is None:
                bucket = _stable_bucket(token, self.dimensions)
                if len(buckets) < EMBED_MEMO_LIMIT:
                    buckets[token] = bucket
            counts[bucket] += 1.0
        vector = np.array(counts)
        # sqrt(x.dot(x)) is how np.linalg.norm computes a vector's norm.
        norm = math.sqrt(vector.dot(vector))
        if norm > 0:
            vector /= norm
        vector.flags.writeable = False
        return vector, math.sqrt(vector.dot(vector))


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors (0 when either is zero)."""
    denominator = float(np.linalg.norm(left) * np.linalg.norm(right))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(left, right) / denominator)
