"""Result sets, and the one relation every oracle judges two of them by.

:func:`agree` is the single comparison of two result sets.  Its
:class:`Relation` is the verdict each oracle states: set equality for
DISTINCT projections, bag equality where duplicates are part of the answer
(UNION ALL compounds), and the subset relation of a ground truth that holds
only part of the rows.  It reads the cached normalized views of
:class:`ResultSet`, so no oracle normalizes rows itself.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Any, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.sqlvalue.comparison import values_close
from repro.sqlvalue.values import is_null, normalize_row, row_sort_key

#: Per-cell float tolerance of a ``tolerant`` comparison.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


class ResultSet:
    """An executed query's output: column names plus rows.

    Rows are stored in the order the engine produced them; :func:`agree`
    compares them order-insensitively.  A result set is immutable after
    construction (``rows`` is a tuple of tuples), which lets
    :meth:`normalized` / :meth:`normalized_bag` cache their views: each side
    of a comparison is normalized once, however many comparisons read it.
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


class Relation(enum.Enum):
    """How an observed result must relate to the expected one."""

    #: The same normalized rows, duplicates ignored.
    SET_EQUAL = "set_equal"
    #: The same normalized rows with the same multiplicities.
    BAG_EQUAL = "bag_equal"
    #: Every normalized expected row appears among the observed ones.
    SUBSET = "subset"


def agree(expected: ResultSet, observed: ResultSet, relation: Relation,
          tolerant: bool = False) -> bool:
    """Whether *observed* stands in *relation* to *expected*.

    Rows compare by their normalized form, in any order.  ``tolerant`` lets
    an equality that fails exactly fall back to comparing the sorted rows
    pairwise, each cell within :data:`FLOAT_REL_TOL` / :data:`FLOAT_ABS_TOL`
    (:func:`~repro.sqlvalue.comparison.values_close`): that absorbs drift
    such as a reference's exact ``Decimal`` against another engine's
    ``REAL``.  A subset is always judged exactly.
    """
    if relation is Relation.SUBSET:
        return expected.normalized() <= observed.normalized()
    if relation is Relation.BAG_EQUAL:
        expected_bag = expected.normalized_bag()
        observed_bag = observed.normalized_bag()
        if expected_bag == observed_bag:
            return True
        expected_rows: Iterable[Tuple[Any, ...]] = expected_bag.elements()
        observed_rows: Iterable[Tuple[Any, ...]] = observed_bag.elements()
    else:
        expected_rows = expected.normalized()
        observed_rows = observed.normalized()
        if expected_rows == observed_rows:
            return True
    if not tolerant:
        return False
    # Rows whose sort position shifts under drift larger than the tolerance
    # are genuine mismatches anyway.
    expected_sorted = sorted(expected_rows, key=row_sort_key)
    observed_sorted = sorted(observed_rows, key=row_sort_key)
    return len(expected_sorted) == len(observed_sorted) and all(
        len(expected_row) == len(observed_row) and all(
            values_close(left, right, rel_tol=FLOAT_REL_TOL,
                         abs_tol=FLOAT_ABS_TOL)
            for left, right in zip(expected_row, observed_row))
        for expected_row, observed_row in zip(expected_sorted, observed_sorted))
