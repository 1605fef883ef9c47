"""Exact (sub-)graph isomorphism utilities and isomorphic-set counting (paper §4).

Exact label-preserving isomorphism checks are used in tests to validate that the
canonical labels / embeddings respect isomorphism, and the isomorphic-set counter
is the metric behind the "query graph diversity" axis of Figure 8.
"""

from __future__ import annotations

from typing import Dict, Set
from networkx.algorithms import isomorphism as nx_iso

from repro.kqe.query_graph import QueryGraph


def _node_match(left: Dict, right: Dict) -> bool:
    return left.get("label") == right.get("label")


def _edge_match(left: Dict, right: Dict) -> bool:
    return left.get("label") == right.get("label")


def are_isomorphic(left: QueryGraph, right: QueryGraph) -> bool:
    """Exact label-preserving isomorphism between two query graphs."""
    if left.size() != right.size():
        return False
    matcher = nx_iso.GraphMatcher(
        left.to_networkx(), right.to_networkx(),
        node_match=_node_match, edge_match=_edge_match,
    )
    return matcher.is_isomorphic()


def is_subgraph_isomorphic(small: QueryGraph, large: QueryGraph) -> bool:
    """True when *small* appears as a label-preserving sub-graph of *large*."""
    matcher = nx_iso.GraphMatcher(
        large.to_networkx(), small.to_networkx(),
        node_match=_node_match, edge_match=_edge_match,
    )
    return matcher.subgraph_is_isomorphic()


class IsomorphicSetCounter:
    """Counts the number of distinct isomorphic sets seen so far (Def. 4.2).

    Graphs are grouped by their Weisfeiler–Lehman canonical label
    (:meth:`QueryGraph.canonical_label`): isomorphic graphs always share a set,
    but that non-isomorphic graphs never do is not yet proven for the graphs
    the random walk generates (see the label-digest item in ROADMAP.md).  The
    counter is what produces the "diverse graphs" series of Figure 8.
    """

    def __init__(self) -> None:
        self._labels: Set[str] = set()
        self._per_label_counts: Dict[str, int] = {}

    def add(self, graph: QueryGraph) -> bool:
        """Register a query graph; returns True when it opens a new isomorphic set."""
        return self.add_label(graph.canonical_label())

    def add_label(self, label: str) -> bool:
        """Register a pre-computed canonical label."""
        self._per_label_counts[label] = self._per_label_counts.get(label, 0) + 1
        if label in self._labels:
            return False
        self._labels.add(label)
        return True

    @property
    def distinct_sets(self) -> int:
        """Number of isomorphic sets discovered."""
        return len(self._labels)

    @property
    def labels(self) -> Set[str]:
        """The canonical labels of every isomorphic set discovered so far.

        Returns the live set — callers must not mutate it.  The parallel
        campaign runner diffs this set at hour boundaries to ship per-hour
        label deltas to the coordinator.
        """
        return self._labels

    @property
    def total_graphs(self) -> int:
        """Total number of graphs registered."""
        return sum(self._per_label_counts.values())

    def redundancy(self) -> float:
        """Fraction of graphs that repeated an already-known structure."""
        total = self.total_graphs
        if total == 0:
            return 0.0
        return 1.0 - self.distinct_sets / total
