"""Database schemas: a set of tables plus primary–foreign key relationships."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.table import TableSchema
from repro.errors import CatalogError, SchemaError


@dataclass(frozen=True)
class ForeignKey:
    """A primary–foreign key relationship between two tables.

    ``table.columns`` references ``ref_table.ref_columns``; in the DSG schema the
    referenced columns are always the implicit primary key of the parent table.
    """

    table: str
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError("foreign key column counts do not match")
        if not self.columns:
            raise SchemaError("foreign key must cover at least one column")

    def joins(self, table_a: str, table_b: str) -> bool:
        """True when this FK connects *table_a* and *table_b* (in either order)."""
        return {self.table, self.ref_table} == {table_a, table_b}


class DatabaseSchema:
    """A collection of table schemas plus the PK–FK edges between them."""

    def __init__(
        self,
        tables: Sequence[TableSchema],
        foreign_keys: Sequence[ForeignKey] = (),
        name: str = "testdb",
    ) -> None:
        self.name = name
        self._tables: Dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self._tables[table.name] = table
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        child = self.table(fk.table)
        parent = self.table(fk.ref_table)
        for column in fk.columns:
            if not child.has_column(column):
                raise SchemaError(
                    f"foreign key column {column!r} missing from table {fk.table!r}"
                )
        for column in fk.ref_columns:
            if not parent.has_column(column):
                raise SchemaError(
                    f"referenced column {column!r} missing from table {fk.ref_table!r}"
                )

    @property
    def table_names(self) -> Tuple[str, ...]:
        """Names of all tables."""
        return tuple(self._tables)

    @property
    def tables(self) -> Tuple[TableSchema, ...]:
        """All table schemas."""
        return tuple(self._tables.values())

    def table(self, name: str) -> TableSchema:
        """Return the table schema named *name* or raise :class:`CatalogError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"schema has no table {name!r}") from None

    def join_edge(self, table_a: str, table_b: str) -> Optional[ForeignKey]:
        """Return the FK joining two tables, if any."""
        for fk in self.foreign_keys:
            if fk.joins(table_a, table_b):
                return fk
        return None

    def joinable_neighbors(self, table: str) -> List[str]:
        """Names of tables directly joinable with *table* through an FK."""
        neighbors = []
        for fk in self.foreign_keys:
            if fk.table == table:
                neighbors.append(fk.ref_table)
            elif fk.ref_table == table:
                neighbors.append(fk.table)
        return sorted(set(neighbors))

    def column_owner(self, column: str) -> List[str]:
        """Names of tables that define a column named *column*."""
        return [t.name for t in self.tables if t.has_column(column)]

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"DatabaseSchema({self.name!r}, tables={list(self.table_names)})"
