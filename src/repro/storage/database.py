"""The in-memory database: a schema plus per-table row storage."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from repro.catalog.schema import DatabaseSchema
from repro.catalog.table import TableSchema
from repro.errors import CatalogError
from repro.storage.table_data import Row, TableData


class Database:
    """An in-memory database instance.

    A ``Database`` is what the DSG pipeline produces (the normalized, noise
    injected tables) and what every simulated engine executes queries against.
    Engines never mutate the database, so a single instance can be shared across
    the four simulated DBMSs in a campaign.
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._tables: Dict[str, TableData] = {
            table.name: TableData(table) for table in schema.tables
        }

    @property
    def table_names(self) -> List[str]:
        """Names of all tables."""
        return list(self._tables)

    def table(self, name: str) -> TableData:
        """Return the storage for table *name*."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"database has no table {name!r}") from None

    def table_schema(self, name: str) -> TableSchema:
        """Return the schema of table *name*."""
        return self.schema.table(name)

    def insert(self, table: str, row: Mapping[str, Any]) -> Row:
        """Insert one row into *table*."""
        return self.table(table).insert(row)

    def insert_many(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Insert several rows into *table*."""
        storage = self.table(table)
        for row in rows:
            storage.insert(row)

    def update_cell(self, table: str, row_index: int, column: str, value: Any) -> None:
        """Overwrite a cell (noise injection)."""
        self.table(table).update_cell(row_index, column, value)

    def row_count(self, table: str) -> int:
        """Number of rows stored in *table*."""
        return len(self.table(table))

    def total_rows(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(t) for t in self._tables.values())

    def copy(self) -> "Database":
        """Copy the database (schema shared, rows copied)."""
        clone = Database(self.schema)
        for name, data in self._tables.items():
            clone._tables[name] = data.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - convenience
        sizes = {name: len(data) for name, data in self._tables.items()}
        return f"Database({self.schema.name!r}, rows={sizes})"
