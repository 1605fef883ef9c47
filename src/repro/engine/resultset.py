"""Result sets returned by the simulated engines."""

from __future__ import annotations

from collections import Counter
from typing import Any, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.sqlvalue.values import is_null, normalize_row, row_sort_key


class ResultSet:
    """An executed query's output: column names plus rows.

    Rows are stored in the order the engine produced them, but comparisons
    are order-insensitive.  Two comparison domains exist, selected by the
    query shape: :meth:`same_rows` compares *sets* of normalized rows, sound
    for the DISTINCT projections the DSG oracle generates, while
    :meth:`same_bag` compares *multisets* — required the moment a query can
    legitimately emit duplicates (UNION ALL compounds), where set comparison
    would silently equate ``[1, 1]`` with ``[1]``.

    A result set is immutable after construction (``rows`` is a tuple of
    tuples), which lets :meth:`normalized` / :meth:`normalized_bag` cache
    their views: every ``same_rows`` / ``contains_all`` call — twice per
    comparison on the differential hot path — previously re-normalized both
    sides from scratch.
    """

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: Tuple[Tuple[Any, ...], ...] = tuple(tuple(row) for row in rows)
        self._normalized: Optional[FrozenSet[Tuple[Any, ...]]] = None
        self._normalized_bag: Optional[Counter] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def normalized(self) -> FrozenSet[Tuple[Any, ...]]:
        """The set of normalized rows used for comparisons (computed once)."""
        if self._normalized is None:
            self._normalized = frozenset(normalize_row(row) for row in self.rows)
        return self._normalized

    def normalized_bag(self) -> Counter:
        """The multiset of normalized rows (row -> multiplicity), cached."""
        if self._normalized_bag is None:
            self._normalized_bag = Counter(
                normalize_row(row) for row in self.rows
            )
        return self._normalized_bag

    def sorted_rows(self) -> List[Tuple[Any, ...]]:
        """Rows sorted into a deterministic order (for display and snapshots)."""
        return sorted(self.rows, key=row_sort_key)

    def column_values(self, column: str) -> List[Any]:
        """All values of one output column."""
        index = self.columns.index(column)
        return [row[index] for row in self.rows]

    def same_rows(self, other: "ResultSet") -> bool:
        """Set equality of normalized rows."""
        return self.normalized() == other.normalized()

    def same_bag(self, other: "ResultSet") -> bool:
        """Multiset equality of normalized rows (duplicates count)."""
        return self.normalized_bag() == other.normalized_bag()

    def contains_all(self, other: "ResultSet") -> bool:
        """True when every row of *other* appears in this result set."""
        return other.normalized() <= self.normalized()

    def render(self, max_rows: int = 20) -> str:
        """Pretty-print the result set as an ASCII table."""
        header = " | ".join(self.columns)
        separator = "-+-".join("-" * len(name) for name in self.columns)
        lines = [header, separator]
        for row in self.sorted_rows()[:max_rows]:
            lines.append(" | ".join("NULL" if is_null(v) else str(v) for v in row))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        if not self.rows:
            lines.append("(empty set)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"ResultSet(columns={list(self.columns)}, rows={len(self.rows)})"
