"""In-memory row storage for a single table."""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.catalog.table import TableSchema
from repro.errors import ExecutionError
from repro.sqlvalue.values import NULL, is_null, null_if_none

Row = Dict[str, Any]
"""A stored row: a mapping from column name to value."""

_NAN_TESTS = {float: math.isnan, Decimal: Decimal.is_nan}
"""The NaN test of each stored type that has a NaN."""


def _storable(table: str, column: str, value: Any) -> Any:
    """*value* as a cell stores it: ``None`` becomes NULL, and NaN is refused.

    A stored NaN would make comparisons against it raise (a Decimal NaN
    against anything, a float NaN against a string or Decimal), so a filter
    could no longer be evaluated before the joins without changing what a
    query raises.  No generated data holds NaN, and the SQL renderer refuses
    to write one.
    """
    is_nan = _NAN_TESTS.get(type(value))
    if is_nan is not None and is_nan(value):
        raise ExecutionError(f"cannot store NaN in {table}.{column}")
    return null_if_none(value)


class TableData:
    """Rows of one table, stored as a list of column-name→value dicts.

    Tables used by the testing campaigns hold at most a few thousand rows, so a
    simple list keeps execution easy to reason about while staying fast enough
    for the benchmark harness.
    """

    def __init__(self, schema: TableSchema, rows: Optional[Iterable[Mapping[str, Any]]] = None) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        if rows is not None:
            for row in rows:
                self.insert(row)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def rows(self) -> List[Row]:
        """The stored rows (mutable; callers that need isolation should copy)."""
        return self._rows

    def insert(self, row: Mapping[str, Any]) -> Row:
        """Insert a row, filling missing columns with NULL.

        Unknown column names are rejected so that generator bugs surface
        early; NaN is refused (see :func:`_storable`).
        """
        table = self.schema.name
        stored: Row = {}
        for column in self.schema.columns:
            name = column.name
            stored[name] = _storable(table, name, row.get(name, NULL))
        unknown = set(row) - set(self.schema.column_names)
        if unknown:
            raise ExecutionError(
                f"insert into {self.schema.name!r} references unknown columns {sorted(unknown)}"
            )
        self._rows.append(stored)
        return stored

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Insert several rows."""
        for row in rows:
            self.insert(row)

    def update_cell(self, row_index: int, column: str, value: Any) -> None:
        """Overwrite one cell (used by the noise injector); NaN is refused."""
        if not self.schema.has_column(column):
            raise ExecutionError(f"{self.schema.name!r} has no column {column!r}")
        value = _storable(self.schema.name, column, value)
        try:
            self._rows[row_index][column] = value
        except IndexError:
            raise ExecutionError(
                f"row index {row_index} out of range for table {self.schema.name!r}"
            ) from None

    def column_values(self, column: str) -> List[Any]:
        """All values of one column, in row order."""
        if not self.schema.has_column(column):
            raise ExecutionError(f"{self.schema.name!r} has no column {column!r}")
        return [row[column] for row in self._rows]

    def distinct_values(self, column: str, include_null: bool = False) -> List[Any]:
        """Distinct non-NULL values of a column (order of first appearance)."""
        seen = []
        seen_keys = set()
        for value in self.column_values(column):
            if is_null(value) and not include_null:
                continue
            key = ("<null>",) if is_null(value) else (type(value).__name__, str(value))
            if key not in seen_keys:
                seen_keys.add(key)
                seen.append(value)
        return seen

    def find_rows(self, column: str, value: Any) -> List[int]:
        """Indices of rows whose *column* equals *value* (NULL never matches)."""
        matches = []
        for index, row in enumerate(self._rows):
            stored = row[column]
            if is_null(stored) or is_null(value):
                continue
            if stored == value:
                matches.append(index)
        return matches

    def rows_as_tuples(self, columns: Optional[Sequence[str]] = None) -> List[tuple]:
        """All rows as positional tuples in *columns* order (schema order default).

        This is the bulk-export shape backend adapters feed to parameterized
        INSERT statements.
        """
        names = tuple(columns) if columns is not None else self.schema.column_names
        for name in names:
            if not self.schema.has_column(name):
                raise ExecutionError(f"{self.schema.name!r} has no column {name!r}")
        return [tuple(row[name] for name in names) for row in self._rows]

    def copy(self) -> "TableData":
        """Deep-enough copy: rows are copied, values are shared (immutable)."""
        clone = TableData(self.schema)
        clone._rows = [dict(row) for row in self._rows]
        return clone
