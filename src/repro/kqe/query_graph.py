"""Query graphs and the plan-iterative graph (paper §4, Figure 6).

A query graph is the labelled sub-graph of the plan-iterative graph induced by a
generated query: table vertices labelled ``table``, column vertices labelled with
their data type, table–table edges labelled with the join type and table–column
edges labelled with the relational operation applied to the column (join column,
filter, projection, group by, aggregate).

Colour refinement (:meth:`QueryGraph.canonical_label`, and the embeddings of
:mod:`repro.kqe.embedding`) runs directly over :meth:`QueryGraph.adjacency`;
networkx is used only for the exact VF2 checks of :mod:`repro.kqe.isomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from repro.catalog.schema import DatabaseSchema
from repro.plan.logical import AnyQuerySpec, CompoundQuerySpec, QuerySpec

TABLE_LABEL = "table"

COLUMN_OPERATIONS = ("join column", "filter", "projection", "group by", "aggregate")
"""Labels of table-column edges in the plan-iterative graph."""


def _column_label(schema: DatabaseSchema, table: str, column: str) -> str:
    """Vertex label of a column: its data type name (paper: label = type)."""
    return schema.table(table).column(column).dtype.name.value


@dataclass(frozen=True)
class QueryGraph:
    """An immutable labelled graph representation of one query."""

    vertices: Tuple[Tuple[str, str], ...]  # (vertex id, label)
    edges: Tuple[Tuple[str, str, str], ...]  # (vertex id, vertex id, label)

    @property
    def vertex_labels(self) -> Dict[str, str]:
        """Mapping vertex id -> label."""
        return dict(self.vertices)

    def adjacency(self) -> Dict[str, Dict[str, str]]:
        """Mapping vertex id -> {neighbour id: edge label}.

        Several plan-iterative edges can connect the same vertex pair (e.g. a
        column that is both filtered and projected); they are merged into one
        edge whose label is the sorted union of their labels joined by ``+``,
        so no information is lost in the simple-graph representation.
        """
        adjacency: Dict[str, Dict[str, str]] = {
            vertex: {} for vertex, _ in self.vertices
        }
        for left, right, label in self.edges:
            existing = adjacency.setdefault(left, {}).get(right)
            if existing is not None:
                label = "+".join(sorted(set(existing.split("+")) | {label}))
            adjacency[left][right] = label
            adjacency.setdefault(right, {})[left] = label
        return adjacency

    def to_networkx(self) -> nx.Graph:
        """Convert to a networkx graph (used by exact isomorphism checks).

        Parallel edges are merged as in :meth:`adjacency`.
        """
        graph = nx.Graph()
        for vertex, label in self.vertices:
            graph.add_node(vertex, label=label)
        for vertex, neighbours in self.adjacency().items():
            for other, label in neighbours.items():
                graph.add_edge(vertex, other, label=label)
        return graph

    def size(self) -> Tuple[int, int]:
        """(vertex count, edge count)."""
        return len(self.vertices), len(self.edges)

    def canonical_label(self) -> str:
        """A label string invariant under vertex renaming.

        Three rounds of Weisfeiler–Lehman colour refinement over vertex and
        edge labels.  Isomorphic query graphs always share a label; that
        non-isomorphic graphs never do is not yet proven for the graphs the
        generator builds (see the label-digest item in ROADMAP.md).
        """
        adjacency = self.adjacency()
        colors = dict(self.vertices)
        for _ in range(3):
            new_colors = {}
            for node, color in colors.items():
                neighbourhood = sorted(
                    f"{label}|{colors[other]}"
                    for other, label in adjacency[node].items()
                )
                new_colors[node] = f"{color}({','.join(neighbourhood)})"
            colors = new_colors
        return "|".join(sorted(colors.values()))


class QueryGraphBuilder:
    """Builds :class:`QueryGraph` objects for generated queries."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema

    def build(self, query: AnyQuerySpec) -> QueryGraph:
        """Build the query graph of *query* (compound specs via :meth:`build_compound`)."""
        if isinstance(query, CompoundQuerySpec):
            return self.build_compound(query)
        return self._build_spec(query)

    def build_compound(self, query: CompoundQuerySpec) -> QueryGraph:
        """Build the graph of a set-operation / CTE query.

        Each arm's graph is embedded with an ``a{i}:``-prefixed vertex
        namespace (arms are usually structural twins, so their aliases would
        collide otherwise), and one extra root vertex — labelled with the
        uniform set operator, or ``cte`` for a single-arm CTE — connects to
        every arm's base table with a ``set arm`` edge.  The canonical label
        therefore distinguishes ``A UNION B`` from ``A EXCEPT B`` and both
        from the plain arm, while staying invariant under arm renaming.
        """
        root = "compound"
        root_label = (query.operators[0].value if query.operators else "cte")
        vertices: List[Tuple[str, str]] = [(root, root_label)]
        edges: List[Tuple[str, str, str]] = []
        for index, arm in enumerate(query.arms):
            prefix = f"a{index}:"
            arm_graph = self._build_spec(arm)
            vertices.extend(
                (prefix + vertex, label) for vertex, label in arm_graph.vertices
            )
            edges.extend(
                (prefix + left, prefix + right, label)
                for left, right, label in arm_graph.edges
            )
            edges.append((root, prefix + arm.base.alias, "set arm"))
        return QueryGraph(tuple(vertices), tuple(edges))

    def _build_spec(self, query: QuerySpec) -> QueryGraph:
        vertices: List[Tuple[str, str]] = []
        edges: List[Tuple[str, str, str]] = []
        seen_vertices: Set[str] = set()
        alias_to_table = {ref.alias: ref.table for ref in query.table_refs}

        def add_vertex(vertex: str, label: str) -> None:
            if vertex not in seen_vertices:
                seen_vertices.add(vertex)
                vertices.append((vertex, label))

        def add_column_edge(alias: str, column: str, label: str) -> None:
            table = alias_to_table.get(alias)
            if table is None:
                return
            vertex = f"{alias}.{column}"
            add_vertex(alias, TABLE_LABEL)
            add_vertex(vertex, _column_label(self.schema, table, column))
            edge = (alias, vertex, label)
            if edge not in edges:
                edges.append(edge)

        for ref in query.table_refs:
            add_vertex(ref.alias, TABLE_LABEL)
        for step in query.joins:
            left_alias = query.base.alias if step.left_key is None else step.left_key.table
            right_alias = step.table.alias
            edges.append((left_alias, right_alias, step.join_type.value))
            if step.left_key is not None:
                add_column_edge(step.left_key.table, step.left_key.column, "join column")
                add_column_edge(step.right_key.table, step.right_key.column, "join column")
        if query.where is not None:
            for table, column in sorted(query.where.references(), key=str):
                if table is not None:
                    add_column_edge(table, column, "filter")
        for item in query.select:
            label = "aggregate" if item.aggregate is not None else "projection"
            for table, column in sorted(item.expression.references(), key=str):
                if table is not None:
                    add_column_edge(table, column, label)
        for ref in query.group_by:
            if ref.table is not None:
                add_column_edge(ref.table, ref.column, "group by")
        return QueryGraph(tuple(vertices), tuple(edges))

    def build_partial(self, base_alias: str, steps: Sequence, extension=None) -> QueryGraph:
        """Build the graph of a partial walk (used by the adaptive random walk).

        ``steps`` are the join steps chosen so far; ``extension`` is an optional
        :class:`~repro.dsg.query_gen.CandidateExtension` describing the next edge
        under consideration.
        """
        vertices: List[Tuple[str, str]] = [(base_alias, TABLE_LABEL)]
        seen = {base_alias}
        edges: List[Tuple[str, str, str]] = []
        for step in steps:
            alias = step.table.alias
            if alias not in seen:
                seen.add(alias)
                vertices.append((alias, TABLE_LABEL))
            left_alias = step.left_key.table if step.left_key is not None else base_alias
            if left_alias not in seen:
                seen.add(left_alias)
                vertices.append((left_alias, TABLE_LABEL))
            edges.append((left_alias, alias, step.join_type.value))
        if extension is not None:
            if extension.new_table not in seen:
                seen.add(extension.new_table)
                vertices.append((extension.new_table, TABLE_LABEL))
            edges.append((extension.anchor, extension.new_table, extension.join_type.value))
        return QueryGraph(tuple(vertices), tuple(edges))
