"""Value representation used throughout the engines.

Values are stored as plain Python objects (``int``, ``float``, ``decimal.Decimal``,
``str`` and :data:`NULL`).  Keeping values unboxed keeps query execution fast; type
information lives on the column definitions and the cast helpers in
:mod:`repro.sqlvalue.casts` consult it when a conversion is required.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Iterable, Optional, Tuple


class _Null:
    """Singleton marker for the SQL ``NULL`` value.

    A dedicated sentinel (instead of Python's ``None``) makes it impossible to
    confuse "value absent from a dict" with "SQL NULL stored in a row", and it
    sorts after nothing because all comparisons against it produce UNKNOWN.
    """

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __copy__(self) -> "_Null":
        return self

    def __deepcopy__(self, memo: dict) -> "_Null":
        return self

    def __reduce__(self):
        return (_Null, ())


NULL = _Null()
"""The SQL NULL singleton."""


def is_null(value: Any) -> bool:
    """Return True when *value* is the SQL NULL marker (or Python ``None``)."""
    return value is NULL or value is None


def null_if_none(value: Any) -> Any:
    """Map Python ``None`` to :data:`NULL`, leaving everything else untouched."""
    return NULL if value is None else value


def is_numeric_value(value: Any) -> bool:
    """True when *value* is a non-NULL numeric Python value."""
    return isinstance(value, (int, float, Decimal)) and not isinstance(value, bool) or (
        isinstance(value, bool)
    )


def is_string_value(value: Any) -> bool:
    """True when *value* is a non-NULL string."""
    return isinstance(value, str)


def canonical_numeric(value: Any) -> Any:
    """Return a canonical numeric form used for hashing and grouping.

    ``-0.0`` is normalized to ``0.0``, ``Decimal`` values with an integral value
    are collapsed onto ``int`` and floats that are exactly integral are collapsed
    too, so that ``1``, ``1.0`` and ``Decimal('1.0')`` all land in the same hash
    bucket.  The seeded "-0 mismatch" faults bypass this normalization, which is
    exactly the bug class of Figure 1(a) / Table 4 id 14.
    """
    if is_null(value):
        return NULL
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return int(value)
        return float(value)
    if isinstance(value, float):
        if value == 0.0:
            return 0.0
        if value.is_integer():
            return int(value)
        return value
    return value


def value_sort_key(value: Any) -> Tuple[int, Any]:
    """Total-order key used when sorting heterogeneous result rows.

    NULLs sort first (as in MySQL's ``ORDER BY``), then numerics, then strings.
    """
    if is_null(value):
        return (0, 0)
    if isinstance(value, bool):
        return (1, float(int(value)))
    if isinstance(value, (int, float, Decimal)):
        return (1, float(value))
    return (2, str(value))


def row_sort_key(row: Iterable[Any]) -> Tuple[Tuple[int, Any], ...]:
    """Sort key for an entire row (tuple of values)."""
    return tuple(value_sort_key(v) for v in row)


_CANONICAL_TYPES = (str, int)
"""Types that :func:`canonical_numeric` returns unchanged (``bool`` is not one)."""


def normalize_row(row: Iterable[Any]) -> Tuple[Any, ...]:
    """Normalize a row for set-based result comparison.

    Numeric values are canonicalized (so ``1`` vs ``1.0`` never causes a spurious
    mismatch between the wide-table oracle and an engine) and NULL is kept as the
    singleton marker.
    """
    row = tuple(row)
    for v in row:
        if type(v) not in _CANONICAL_TYPES:
            break
    else:
        return row
    return tuple(
        v if type(v) in _CANONICAL_TYPES
        else NULL if is_null(v) else canonical_numeric(v)
        for v in row
    )


def render_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float, Decimal)):
        return repr(value) if not isinstance(value, Decimal) else format(value, "f")
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
