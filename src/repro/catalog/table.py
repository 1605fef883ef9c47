"""Table schemas: columns, primary keys and secondary keys."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.catalog.column import Column
from repro.errors import CatalogError, SchemaError


@dataclass(frozen=True)
class KeyConstraint:
    """A (possibly composite) key over one table."""

    columns: Tuple[str, ...]
    unique: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a key constraint must cover at least one column")


class TableSchema:
    """Schema of a single table: ordered columns plus key metadata.

    The DSG normalizer always adds an explicit ``RowID`` surrogate primary key
    (per paper §3.1) and additionally records the *implicit* primary key -- the
    candidate key discovered from functional dependencies -- so the query
    generator can build PK–FK join conditions.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        implicit_key: Sequence[str] = (),
        keys: Sequence[KeyConstraint] = (),
    ) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._by_name:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            self._by_name[column.name] = column
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        self.implicit_key: Tuple[str, ...] = tuple(implicit_key)
        self.keys: Tuple[KeyConstraint, ...] = tuple(keys)
        for key_col in list(self.primary_key) + list(self.implicit_key):
            if key_col not in self._by_name:
                raise SchemaError(
                    f"key column {key_col!r} is not a column of table {name!r}"
                )

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Names of all columns, in declaration order."""
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        """True when the table defines a column called *name*."""
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Return the column named *name* or raise :class:`CatalogError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def data_columns(self) -> Tuple[Column, ...]:
        """All columns except the surrogate ``RowID``."""
        return tuple(c for c in self.columns if c.name != "RowID")

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"TableSchema({self.name!r}, columns={list(self.column_names)})"


def make_table(
    name: str,
    columns: Iterable[Column],
    primary_key: Sequence[str] = (),
    implicit_key: Sequence[str] = (),
    keys: Sequence[KeyConstraint] = (),
) -> TableSchema:
    """Convenience constructor mirroring :class:`TableSchema`."""
    return TableSchema(
        name,
        list(columns),
        primary_key=primary_key,
        implicit_key=implicit_key,
        keys=keys,
    )
