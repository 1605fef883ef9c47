"""The schema graph (paper §3.3): tables, columns and joinability edges.

Vertices are tables and columns; a table–table edge means the two tables can be
joined through a primary–foreign key relationship, a table–column edge means the
column belongs to the table (and can receive a filter during the random walk).
The graph is also the skeleton that KQE extends into the plan-iterative graph.
It is held as the schema's table names and its join edges; the table–column
edges are the schema's own columns (:meth:`SchemaGraph.columns_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.catalog.schema import DatabaseSchema


@dataclass(frozen=True)
class JoinEdge:
    """A joinable table pair: ``child.column`` references ``parent.column``."""

    child: str
    parent: str
    column: str

    def other(self, table: str) -> str:
        """The table on the other side of the edge."""
        if table == self.child:
            return self.parent
        if table == self.parent:
            return self.child
        raise KeyError(f"{table!r} is not an endpoint of {self}")

    def direction_from(self, table: str) -> str:
        """``"to_parent"`` when walking from child to parent, else ``"to_child"``."""
        if table == self.child:
            return "to_parent"
        if table == self.parent:
            return "to_child"
        raise KeyError(f"{table!r} is not an endpoint of {self}")


class SchemaGraph:
    """Graph view over a normalized database schema."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._table_names = tuple(table.name for table in schema.tables)
        self._join_edges: List[JoinEdge] = [
            JoinEdge(child=fk.table, parent=fk.ref_table, column=fk.columns[0])
            for fk in schema.foreign_keys
        ]

    # ------------------------------------------------------------------ queries

    @property
    def table_names(self) -> Tuple[str, ...]:
        """All table vertices, in schema order."""
        return self._table_names

    @property
    def join_edges(self) -> List[JoinEdge]:
        """All PK–FK join edges."""
        return list(self._join_edges)

    def edges_of(self, table: str) -> List[JoinEdge]:
        """Join edges incident to *table*."""
        return [edge for edge in self._join_edges if table in (edge.child, edge.parent)]

    def edges_from_set(self, tables: Set[str]) -> List[Tuple[str, JoinEdge]]:
        """Join edges from any table in *tables* to a table outside it.

        Returns ``(anchor_table, edge)`` pairs where ``anchor_table`` is the
        already-included endpoint.
        """
        frontier: List[Tuple[str, JoinEdge]] = []
        for edge in self._join_edges:
            if edge.child in tables and edge.parent not in tables:
                frontier.append((edge.child, edge))
            elif edge.parent in tables and edge.child not in tables:
                frontier.append((edge.parent, edge))
        return frontier

    def columns_of(self, table: str) -> List[str]:
        """Non-RowID column names of *table*."""
        return [c.name for c in self.schema.table(table).columns if c.name != "RowID"]

    def degree(self, table: str) -> int:
        """Number of join edges incident to *table*."""
        return len(self.edges_of(table))

    def is_connected(self) -> bool:
        """True when every table can be reached from every other via join edges."""
        tables = self._table_names
        if len(tables) <= 1:
            return True
        neighbours: Dict[str, List[str]] = {table: [] for table in tables}
        for edge in self._join_edges:
            neighbours[edge.child].append(edge.parent)
            neighbours[edge.parent].append(edge.child)
        reached = {tables[0]}
        frontier = [tables[0]]
        while frontier:
            for other in neighbours[frontier.pop()]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return len(reached) == len(tables)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"SchemaGraph(tables={len(self.table_names)}, "
            f"join_edges={len(self._join_edges)})"
        )
