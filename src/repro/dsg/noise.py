"""Noise injection with wide-table synchronization (paper §3.2).

The injector corrupts a small fraction of the primary / foreign key cells of the
normalized tables with boundary values and NULLs, then re-synchronizes the wide
table, the RowID map and the join bitmap index with the Case 1 / Case 2 rules so
the ground truth recovered from the wide table stays exact.

Beyond the paper's boundary values we optionally plant *adversarial pairs*: two
distinct 17-digit integers that collide once a buggy engine compares join keys in
the ``double`` domain (the Figure 1(b) bug class).  Both values are unique, so the
ground truth is unaffected; only a precision-losing engine sees a spurious match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.catalog.schema import ForeignKey
from repro.dsg.fd import transitive_closure
from repro.dsg.normalization import NormalizedDatabase
from repro.errors import NoiseInjectionError
from repro.sqlvalue.datatypes import DataType, TypeCategory
from repro.sqlvalue.values import NULL, canonical_numeric, is_null


@dataclass(frozen=True)
class NoiseEvent:
    """One injected noise value and where it went."""

    table: str
    row_id: int
    column: str
    old_value: Any
    new_value: Any
    case: int  # 1 = implicit primary key, 2 = foreign key


@dataclass
class NoiseReport:
    """Summary of an injection run, consumed by the query generator."""

    events: List[NoiseEvent] = field(default_factory=list)
    touched_tables: Set[str] = field(default_factory=set)
    augmented_tables: Set[str] = field(default_factory=set)
    adversarial_pairs: List[Tuple[str, Any, Any]] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of injected noise values."""
        return len(self.events)


class NoiseInjector:
    """Injects key noise into a :class:`NormalizedDatabase` and keeps it consistent."""

    def __init__(
        self,
        ndb: NormalizedDatabase,
        rng: Optional[random.Random] = None,
        epsilon: float = 0.08,
        null_fraction: float = 0.4,
        adversarial_pairs: bool = True,
    ) -> None:
        if not 0 <= epsilon <= 1:
            raise NoiseInjectionError("epsilon must be within [0, 1]")
        self.ndb = ndb
        self.rng = rng or random.Random(17)
        self.epsilon = epsilon
        self.null_fraction = null_fraction
        self.adversarial_pairs = adversarial_pairs
        self._used_values: Dict[str, Set[Any]] = {}

    # ------------------------------------------------------------------ values

    def _existing_values(self, column: str) -> Set[Any]:
        if column not in self._used_values:
            values = set()
            for value in self.ndb.wide.column_values(column):
                if not is_null(value):
                    values.add(canonical_numeric(value))
            self._used_values[column] = values
        return self._used_values[column]

    def _unique_noise_value(self, column: str, dtype: DataType, salt: int) -> Any:
        """Pick a boundary-style value absent from *column* (canonical equality)."""
        existing = self._existing_values(column)
        candidates: List[Any] = list(dtype.boundary_values())
        category = dtype.category
        for attempt in range(64):
            if attempt < len(candidates):
                candidate = candidates[attempt]
            elif category is TypeCategory.STRING:
                candidate = f"ZZ_{salt}_{attempt}"
            elif category is TypeCategory.FLOAT:
                candidate = 1e15 + salt * 997 + attempt
            elif category is TypeCategory.DECIMAL:
                candidate = Decimal(90_000_000 + salt * 1_009 + attempt)
            else:
                candidate = 2_000_000_000 + salt * 1_013 + attempt
            canonical = canonical_numeric(candidate)
            if canonical not in existing:
                existing.add(canonical)
                return candidate
        raise NoiseInjectionError(f"could not find a unique noise value for {column!r}")

    # ------------------------------------------------------------------ helpers

    def _dependent_columns(self, column: str) -> Set[str]:
        """``Fd(col_k)``: columns transitively determined by *column*."""
        return transitive_closure(column, self.ndb.fds)

    def _dependent_tables(self, columns: Set[str]) -> List[str]:
        """Tables whose data columns are fully contained in *columns* (``T(...)``)."""
        result = []
        for table in self.ndb.tables:
            if set(table.columns) <= columns:
                result.append(table.name)
        return result

    # -------------------------------------------------------------------- cases

    def _inject_case1(self, table: str, row_id: int, column: str, noise_value: Any) -> None:
        """Noise in an implicit primary key column (paper Case 1)."""
        ndb = self.ndb
        affected_wide = ndb.rowid_map.wide_rows_of(table, row_id)
        dependents = self._dependent_columns(column)
        # Corrupt the stored table cell.
        ndb.database.update_cell(table, row_id, column, noise_value)
        # Insertion: a new wide row carrying the noisy key and its dependents.
        if affected_wide:
            template = ndb.wide.row(affected_wide[0])
            new_row = {column: noise_value}
            for dependent in dependents:
                new_row[dependent] = template[dependent]
        else:  # pragma: no cover - defensive
            new_row = {column: noise_value}
        new_wide_id = ndb.wide.append(new_row)
        ndb.rowid_map.add_wide_row()
        ndb.bitmap.add_wide_row()
        copied_columns = {column} | dependents
        for dep_table in self._dependent_tables(copied_columns):
            if dep_table == table:
                ndb.rowid_map.set(new_wide_id, dep_table, row_id)
                ndb.bitmap.set(dep_table, new_wide_id, True)
                continue
            if affected_wide:
                mapped = ndb.rowid_map.get(affected_wide[0], dep_table)
                if mapped is not None:
                    ndb.rowid_map.set(new_wide_id, dep_table, mapped)
                    ndb.bitmap.set(dep_table, new_wide_id, True)
        ndb.rowid_map.set(new_wide_id, table, row_id)
        ndb.bitmap.set(table, new_wide_id, True)
        # Update: the old wide rows lose the dependent values and their links to
        # the corrupted table *and* every ancestor table reachable only through
        # it (their key copies in the wide row are NULL now, so keeping the link
        # would let the oracle read stale attribute values).
        dependent_tables = set(self._dependent_tables(copied_columns)) | {table}
        for wide_id in affected_wide:
            for dependent in dependents:
                ndb.wide.set_cell(wide_id, dependent, NULL)
            for dep_table in dependent_tables:
                ndb.rowid_map.set(wide_id, dep_table, None)
                ndb.bitmap.set(dep_table, wide_id, False)
        self._note(table, augmented=True)

    def _inject_case2(self, table: str, row_id: int, column: str, noise_value: Any,
                      fk: ForeignKey) -> None:
        """Noise in a foreign key column (paper Case 2)."""
        ndb = self.ndb
        affected_wide = ndb.rowid_map.wide_rows_of(table, row_id)
        dependents = self._dependent_columns(column)
        ndb.database.update_cell(table, row_id, column, noise_value)
        # Insertion: preserve the parent-side content in a fresh wide row.
        copied_columns = {column} | dependents
        new_row: Dict[str, Any] = {}
        if affected_wide:
            template = ndb.wide.row(affected_wide[0])
            for copied in copied_columns:
                new_row[copied] = template[copied]
        new_wide_id = ndb.wide.append(new_row)
        ndb.rowid_map.add_wide_row()
        ndb.bitmap.add_wide_row()
        dependent_tables = self._dependent_tables(copied_columns)
        for dep_table in dependent_tables:
            if not affected_wide:
                continue
            mapped = ndb.rowid_map.get(affected_wide[0], dep_table)
            if mapped is not None:
                ndb.rowid_map.set(new_wide_id, dep_table, mapped)
                ndb.bitmap.set(dep_table, new_wide_id, True)
            self._note(dep_table, augmented=True)
        # Update: the affected wide rows carry the noisy FK and lose the
        # parent-derived values, and drop their link to the parent-side tables.
        for wide_id in affected_wide:
            ndb.wide.set_cell(wide_id, column, noise_value)
            for dependent in dependents:
                ndb.wide.set_cell(wide_id, dependent, NULL)
            for dep_table in dependent_tables:
                if dep_table == table:
                    continue
                ndb.rowid_map.set(wide_id, dep_table, None)
                ndb.bitmap.set(dep_table, wide_id, False)
        self._note(table)

    def _note(self, table: str, augmented: bool = False) -> None:
        self._report.touched_tables.add(table)
        if augmented:
            self._report.augmented_tables.add(table)

    # ------------------------------------------------------------------- driver

    def _target_rows(self, table: str) -> List[int]:
        row_count = self.ndb.database.row_count(table)
        if row_count == 0:
            return []
        count = max(1, int(round(self.epsilon * row_count)))
        count = min(count, row_count)
        return self.rng.sample(range(row_count), count)

    def inject(self) -> NoiseReport:
        """Run the injection and return a :class:`NoiseReport`."""
        self._report = NoiseReport()
        salt = 0
        # Case 2: foreign key columns of child tables.
        for fk in self.ndb.schema.foreign_keys:
            column = fk.columns[0]
            dtype = self.ndb.schema.table(fk.table).column(column).dtype
            for row_id in self._target_rows(fk.table):
                salt += 1
                old_value = self.ndb.database.table(fk.table).rows[row_id][column]
                if is_null(old_value):
                    continue
                if self.rng.random() < self.null_fraction:
                    noise_value: Any = NULL
                else:
                    noise_value = self._unique_noise_value(column, dtype, salt)
                self._inject_case2(fk.table, row_id, column, noise_value, fk)
                self._report.events.append(
                    NoiseEvent(fk.table, row_id, column, old_value, noise_value, case=2)
                )
        # Case 1: implicit primary keys of parent (dimension) tables.
        parent_tables = {fk.ref_table for fk in self.ndb.schema.foreign_keys}
        for table_meta in self.ndb.tables:
            if table_meta.is_hub or table_meta.name not in parent_tables:
                continue
            if len(table_meta.implicit_key) != 1:
                continue
            column = table_meta.implicit_key[0]
            dtype = self.ndb.schema.table(table_meta.name).column(column).dtype
            for row_id in self._target_rows(table_meta.name):
                salt += 1
                old_value = self.ndb.database.table(table_meta.name).rows[row_id][column]
                if is_null(old_value):
                    continue
                if self.rng.random() < self.null_fraction:
                    noise_value = NULL
                else:
                    noise_value = self._unique_noise_value(column, dtype, salt)
                self._inject_case1(table_meta.name, row_id, column, noise_value)
                self._report.events.append(
                    NoiseEvent(table_meta.name, row_id, column, old_value, noise_value, case=1)
                )
        if self.adversarial_pairs:
            self._inject_adversarial_pairs()
        return self._report

    # ---------------------------------------------------------- adversarial pairs

    _PAIR_BASE = 9_007_199_254_740_992  # 2**53: consecutive integers collide as double

    def _inject_adversarial_pairs(self) -> None:
        """Plant double-collision values into one FK / parent-key pair per edge."""
        for pair_index, fk in enumerate(self.ndb.schema.foreign_keys):
            column = fk.columns[0]
            dtype = self.ndb.schema.table(fk.table).column(column).dtype
            if dtype.category not in (TypeCategory.INTEGER, TypeCategory.DECIMAL):
                continue
            child_rows = self.ndb.database.row_count(fk.table)
            parent_rows = self.ndb.database.row_count(fk.ref_table)
            if child_rows == 0 or parent_rows == 0:
                continue
            base = self._PAIR_BASE + pair_index * 64
            child_value = base + 1
            parent_value = base
            existing = self._existing_values(column)
            if canonical_numeric(child_value) in existing or (
                canonical_numeric(parent_value) in existing
            ):
                continue
            existing.update({canonical_numeric(child_value), canonical_numeric(parent_value)})
            child_row = self.rng.randrange(child_rows)
            parent_row = self.rng.randrange(parent_rows)
            old_child = self.ndb.database.table(fk.table).rows[child_row][column]
            old_parent = self.ndb.database.table(fk.ref_table).rows[parent_row][column]
            if is_null(old_child) or is_null(old_parent):
                continue
            self._inject_case2(fk.table, child_row, column, child_value, fk)
            self._report.events.append(
                NoiseEvent(fk.table, child_row, column, old_child, child_value, case=2)
            )
            self._inject_case1(fk.ref_table, parent_row, column, parent_value)
            self._report.events.append(
                NoiseEvent(fk.ref_table, parent_row, column, old_parent, parent_value, case=1)
            )
            self._report.adversarial_pairs.append((column, child_value, parent_value))


def inject_noise(ndb: NormalizedDatabase, rng: Optional[random.Random] = None,
                 epsilon: float = 0.08, adversarial_pairs: bool = True) -> NoiseReport:
    """Convenience wrapper around :class:`NoiseInjector`."""
    injector = NoiseInjector(ndb, rng=rng, epsilon=epsilon,
                             adversarial_pairs=adversarial_pairs)
    return injector.inject()
