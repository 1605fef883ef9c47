"""Exact label-preserving VF2 checks over query graphs, for tests only.

networkx is a test dependency: the runtime groups query graphs by their
Weisfeiler–Lehman canonical labels, and these exact checks are what tests
compare those labels against.
"""

import networkx as nx
from networkx.algorithms import isomorphism as nx_iso

from repro.kqe.query_graph import QueryGraph


def to_networkx(graph: QueryGraph) -> nx.Graph:
    """*graph* as a networkx graph, parallel edges merged as in
    :meth:`QueryGraph.adjacency`."""
    converted = nx.Graph()
    for vertex, label in graph.vertices:
        converted.add_node(vertex, label=label)
    for vertex, neighbours in graph.adjacency().items():
        for other, label in neighbours.items():
            converted.add_edge(vertex, other, label=label)
    return converted


def _same_label(left: dict, right: dict) -> bool:
    return left.get("label") == right.get("label")


def are_isomorphic(left: QueryGraph, right: QueryGraph) -> bool:
    """Exact label-preserving isomorphism between two query graphs."""
    if left.size() != right.size():
        return False
    return nx_iso.GraphMatcher(
        to_networkx(left), to_networkx(right),
        node_match=_same_label, edge_match=_same_label,
    ).is_isomorphic()


def is_subgraph_isomorphic(small: QueryGraph, large: QueryGraph) -> bool:
    """True when *small* appears as a label-preserving sub-graph of *large*."""
    return nx_iso.GraphMatcher(
        to_networkx(large), to_networkx(small),
        node_match=_same_label, edge_match=_same_label,
    ).subgraph_is_isomorphic()
