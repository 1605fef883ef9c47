"""Schema normalization: split the wide table into 3NF tables (paper §3.1).

The decomposition follows classic 3NF synthesis over the minimal cover of the
discovered functional dependencies: one table per determinant group, plus a hub
table holding a candidate key of the wide relation so that the decomposition is
lossless.  Every generated table carries an explicit ``RowID`` surrogate primary
key; the implicit (FD-derived) key and the implicit foreign keys are recorded in
the schema metadata, because those are what the join query generator walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.catalog.column import Column
from repro.catalog.schema import DatabaseSchema, ForeignKey
from repro.catalog.table import KeyConstraint, TableSchema
from repro.dsg.bitmap import JoinBitmapIndex
from repro.dsg.fd import FDDiscovery, FunctionalDependency
from repro.dsg.rowid_map import RowIDMap
from repro.dsg.widetable import WideTable
from repro.errors import NormalizationError
from repro.sqlvalue.datatypes import bigint
from repro.sqlvalue.values import is_null, normalize_row
from repro.storage.database import Database


def attribute_closure(attributes: Iterable[str],
                      fds: Sequence[FunctionalDependency]) -> Set[str]:
    """Closure of an attribute set under a set of FDs."""
    closure = set(attributes)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if set(fd.lhs) <= closure and fd.rhs not in closure:
                closure.add(fd.rhs)
                changed = True
    return closure


def minimal_cover(fds: Sequence[FunctionalDependency]) -> List[FunctionalDependency]:
    """Compute a minimal cover: reduced left sides, no redundant dependencies."""
    # Left-reduction: drop extraneous LHS attributes.
    reduced: List[FunctionalDependency] = []
    for fd in fds:
        lhs = list(fd.lhs)
        for attribute in list(lhs):
            if len(lhs) == 1:
                break
            candidate = [a for a in lhs if a != attribute]
            if fd.rhs in attribute_closure(candidate, fds):
                lhs = candidate
        reduced.append(FunctionalDependency(tuple(lhs), fd.rhs))
    # Remove duplicates while preserving order.
    seen = set()
    unique: List[FunctionalDependency] = []
    for fd in reduced:
        key = (tuple(sorted(fd.lhs)), fd.rhs)
        if key not in seen:
            seen.add(key)
            unique.append(fd)
    # Redundancy elimination: drop FDs derivable from the rest.
    result = list(unique)
    for fd in list(unique):
        remaining = [other for other in result if other != fd]
        if fd.rhs in attribute_closure(fd.lhs, remaining):
            result = remaining
    return result


def candidate_key(columns: Sequence[str],
                  fds: Sequence[FunctionalDependency]) -> Tuple[str, ...]:
    """A candidate key of the wide relation (greedy attribute removal)."""
    key = list(columns)
    for column in list(key):
        trial = [c for c in key if c != column]
        if attribute_closure(trial, fds) >= set(columns):
            key = trial
    return tuple(key)


@dataclass(frozen=True)
class DecomposedTable:
    """One table of the decomposition: its data columns and implicit key."""

    name: str
    columns: Tuple[str, ...]
    implicit_key: Tuple[str, ...]
    is_hub: bool = False


@dataclass
class NormalizedDatabase:
    """Everything DSG needs after normalization.

    The wide table, the normalized schema and data, the RowID map, the join
    bitmap index, the minimal-cover FDs and the decomposition metadata travel
    together because noise injection and ground-truth recovery must keep them
    mutually consistent.
    """

    wide: WideTable
    schema: DatabaseSchema
    database: Database
    rowid_map: RowIDMap
    bitmap: JoinBitmapIndex
    fds: List[FunctionalDependency]
    tables: List[DecomposedTable]
    hub_table: str

    def table_meta(self, name: str) -> DecomposedTable:
        """Decomposition metadata of one table."""
        for table in self.tables:
            if table.name == name:
                return table
        raise NormalizationError(f"no decomposed table named {name!r}")

    def data_columns(self, name: str) -> Tuple[str, ...]:
        """Data columns (without RowID) of one table."""
        return self.table_meta(name).columns


class SchemaNormalizer:
    """Builds a :class:`NormalizedDatabase` from a wide table."""

    def __init__(
        self,
        wide: WideTable,
        fds: Optional[Sequence[FunctionalDependency]] = None,
        max_lhs_size: int = 2,
        max_tables: int = 8,
        key_override: Optional[Sequence[str]] = None,
    ) -> None:
        self.wide = wide
        self.max_lhs_size = max_lhs_size
        self.max_tables = max_tables
        self.key_override = tuple(key_override) if key_override else None
        if fds is None:
            fds = FDDiscovery(wide, max_lhs_size=max_lhs_size).discover()
        self.fds = minimal_cover(list(fds))

    # ---------------------------------------------------------------- structure

    def _determinant_groups(self) -> Dict[Tuple[str, ...], Set[str]]:
        groups: Dict[Tuple[str, ...], Set[str]] = {}
        for fd in self.fds:
            groups.setdefault(tuple(fd.lhs), set()).update({fd.rhs})
        return groups

    def decompose(self) -> List[DecomposedTable]:
        """Compute the decomposition (without materializing data)."""
        columns = list(self.wide.column_names)
        groups = self._determinant_groups()
        key = self.key_override or candidate_key(columns, self.fds)
        raw_tables: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        for lhs, rhs in groups.items():
            table_columns = tuple(c for c in columns if c in set(lhs) | rhs)
            raw_tables.append((table_columns, lhs))
        # Hub table: ensure a table contains the candidate key.
        if not any(set(key) <= set(cols) for cols, _ in raw_tables):
            raw_tables.insert(0, (key, key))
        # Drop tables contained in another table.
        kept: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        for cols, lhs in raw_tables:
            if any(set(cols) < set(other) for other, _ in raw_tables if other != cols):
                continue
            if any(set(cols) == set(other) for other, _ in kept):
                continue
            kept.append((cols, lhs))
        kept = kept[: self.max_tables]
        # Order: hub (candidate-key table) first, then by descending width.
        def is_hub(entry: Tuple[Tuple[str, ...], Tuple[str, ...]]) -> bool:
            return set(key) <= set(entry[0])

        kept.sort(key=lambda entry: (not is_hub(entry), -len(entry[0]), entry[0]))
        tables: List[DecomposedTable] = []
        for index, (cols, lhs) in enumerate(kept, start=1):
            hub = is_hub((cols, lhs))
            implicit = key if hub else lhs
            tables.append(
                DecomposedTable(
                    name=f"T{index}",
                    columns=cols,
                    implicit_key=tuple(implicit),
                    is_hub=hub,
                )
            )
        if not tables:
            raise NormalizationError("decomposition produced no tables")
        return tables

    # -------------------------------------------------------------- materialize

    def _table_schema(self, table: DecomposedTable) -> TableSchema:
        columns = [Column("RowID", bigint(20, nullable=False), "surrogate key")]
        for name in table.columns:
            columns.append(self.wide.column(name))
        return TableSchema(
            table.name,
            columns,
            primary_key=("RowID",),
            implicit_key=table.implicit_key,
            keys=(KeyConstraint(tuple(table.implicit_key), unique=True,
                                name=f"ik_{table.name}"),),
        )

    def _foreign_keys(self, tables: List[DecomposedTable]) -> List[ForeignKey]:
        foreign_keys: List[ForeignKey] = []
        for child in tables:
            for parent in tables:
                if child.name == parent.name:
                    continue
                if len(parent.implicit_key) != 1:
                    continue
                key_column = parent.implicit_key[0]
                if key_column not in child.columns:
                    continue
                if child.implicit_key == parent.implicit_key:
                    continue
                foreign_keys.append(
                    ForeignKey(
                        table=child.name,
                        columns=(key_column,),
                        ref_table=parent.name,
                        ref_columns=(key_column,),
                        name=f"fk_{child.name}_{parent.name}",
                    )
                )
        return foreign_keys

    def build(self, database_name: str = "tqs_testdb") -> NormalizedDatabase:
        """Decompose the wide table and materialize schema, data and indexes."""
        tables = self.decompose()
        schemas = [self._table_schema(table) for table in tables]
        foreign_keys = self._foreign_keys(tables)
        schema = DatabaseSchema(schemas, foreign_keys, name=database_name)
        database = Database(schema)
        rowid_map = RowIDMap([table.name for table in tables])
        bitmap = JoinBitmapIndex(len(self.wide), [table.name for table in tables])
        # Materialize every table by distinct projection keyed on the implicit key.
        key_index: Dict[str, Dict[Tuple, int]] = {table.name: {} for table in tables}
        for wide_id, wide_row in enumerate(self.wide.rows):
            rowid_map.add_wide_row()
            for table in tables:
                key_values = tuple(wide_row[c] for c in table.implicit_key)
                if any(is_null(v) for v in key_values):
                    continue
                lookup = key_index[table.name]
                # Keys are deduplicated under SQL value equality (0 == -0,
                # 1 == 1.0), so one parent row represents every spelling of the
                # same key value; this is what lets the 0 / -0 hash-join bugs
                # manifest as missing matches rather than never firing.
                normalized_key = normalize_row(key_values)
                if normalized_key not in lookup:
                    row_id = len(lookup)
                    lookup[normalized_key] = row_id
                    stored = {"RowID": row_id}
                    for column in table.columns:
                        stored[column] = wide_row[column]
                    database.insert(table.name, stored)
                row_id = lookup[normalized_key]
                rowid_map.set(wide_id, table.name, row_id)
                bitmap.set(table.name, wide_id, True)
        hub = next((table.name for table in tables if table.is_hub), tables[0].name)
        return NormalizedDatabase(
            wide=self.wide,
            schema=schema,
            database=database,
            rowid_map=rowid_map,
            bitmap=bitmap,
            fds=list(self.fds),
            tables=tables,
            hub_table=hub,
        )


def normalize(wide: WideTable, fds: Optional[Sequence[FunctionalDependency]] = None,
              max_lhs_size: int = 2,
              key_override: Optional[Sequence[str]] = None) -> NormalizedDatabase:
    """Convenience wrapper: discover FDs (if needed), decompose and materialize."""
    return SchemaNormalizer(wide, fds=fds, max_lhs_size=max_lhs_size,
                            key_override=key_override).build()
