"""Three-valued-logic comparisons shared by filters, join conditions and the oracle."""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Any, Optional

from repro.sqlvalue.casts import to_decimal, to_double_lossy, to_string
from repro.sqlvalue.values import NULL, canonical_numeric, is_null

UNKNOWN = None
"""The UNKNOWN truth value of SQL three-valued logic (represented as ``None``)."""


def _coerce_pair(left: Any, right: Any) -> tuple:
    """Coerce two non-NULL values into a common comparable domain."""
    left_is_str = isinstance(left, str)
    right_is_str = isinstance(right, str)
    if left_is_str and right_is_str:
        return left, right
    if left_is_str != right_is_str:
        # Mixed string/number comparison: numbers win, use the exact domain so
        # '123' == 123 holds without floating point surprises.
        return to_decimal(left), to_decimal(right)
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        return to_decimal(left), to_decimal(right)
    return left, right


_PLAIN_TYPES = (str, int, float, Decimal)
"""Types whose same-type pairs compare natively, without coercion.

Coercing two ``Decimal`` values leaves them unchanged, so comparing them
natively gives the same answer, and raises the same ``InvalidOperation``
for a NaN."""


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Compare two values, returning -1/0/1 or UNKNOWN when either is NULL."""
    kind = type(left)
    if kind is type(right) and kind in _PLAIN_TYPES:
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if is_null(left) or is_null(right):
        return UNKNOWN
    a, b = _coerce_pair(left, right)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def plain_kind(value: Any) -> Optional[type]:
    """The kind of a value that ``==`` and ``hash`` compare exactly, or None.

    ``str`` values form one kind and ``int`` / non-NaN ``float`` values
    another.  Within a kind, ``==`` and ``hash`` agree with
    ``sql_compare(...) == 0``, so equal values can be found by a set or dict
    lookup.  ``bool``, ``Decimal``, NaN and NULL have no kind.
    """
    kind = type(value)
    if kind is str:
        return str
    if kind is int or (kind is float and value == value):
        return float
    return None


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``=`` with three-valued logic."""
    cmp = sql_compare(left, right)
    if cmp is UNKNOWN:
        return UNKNOWN
    return cmp == 0


def sql_not_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``<>`` with three-valued logic."""
    eq = sql_equal(left, right)
    if eq is UNKNOWN:
        return UNKNOWN
    return not eq


def sql_less(left: Any, right: Any) -> Optional[bool]:
    """SQL ``<``."""
    cmp = sql_compare(left, right)
    return UNKNOWN if cmp is UNKNOWN else cmp < 0


def sql_less_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``<=``."""
    cmp = sql_compare(left, right)
    return UNKNOWN if cmp is UNKNOWN else cmp <= 0


def sql_greater(left: Any, right: Any) -> Optional[bool]:
    """SQL ``>``."""
    cmp = sql_compare(left, right)
    return UNKNOWN if cmp is UNKNOWN else cmp > 0


def sql_greater_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``>=``."""
    cmp = sql_compare(left, right)
    return UNKNOWN if cmp is UNKNOWN else cmp >= 0


def null_safe_equal(left: Any, right: Any) -> bool:
    """SQL ``<=>``: like ``=`` but NULL <=> NULL is True and never UNKNOWN."""
    left_null = is_null(left)
    right_null = is_null(right)
    if left_null or right_null:
        return left_null and right_null
    return sql_compare(left, right) == 0


def logical_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Three-valued AND."""
    if left is False or right is False:
        return False
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return True


def logical_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Three-valued OR."""
    if left is True or right is True:
        return True
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return False


def logical_not(value: Optional[bool]) -> Optional[bool]:
    """Three-valued NOT."""
    if value is UNKNOWN:
        return UNKNOWN
    return not value


def truth_value(value: Any) -> Optional[bool]:
    """Interpret an arbitrary SQL value as a truth value (MySQL semantics).

    NULL is UNKNOWN; numbers are truthy when non-zero; strings are converted with
    the leading-prefix rule, so ``'abc'`` is falsy and ``'1x'`` is truthy.
    """
    if is_null(value):
        return UNKNOWN
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, Decimal)):
        return value != 0
    return to_double_lossy(value) != 0.0


def values_close(left: Any, right: Any, rel_tol: float = 1e-9,
                 abs_tol: float = 1e-12) -> bool:
    """Equality with float tolerance, used by the cross-engine result comparison.

    Exact SQL equality (via :func:`sql_compare`) short-circuits; otherwise two
    floating-point representations of the same logical value (e.g. a ``Decimal``
    computed by the reference executor vs the ``REAL`` a real engine stores) are
    accepted when they agree within the given relative/absolute tolerance.
    NULL only matches NULL.
    """
    left_null = is_null(left)
    right_null = is_null(right)
    if left_null or right_null:
        return left_null and right_null
    if sql_compare(left, right) == 0:
        return True
    involves_float = isinstance(left, (float, Decimal)) or isinstance(
        right, (float, Decimal)
    )
    if not involves_float:
        return False
    try:
        a = float(left)
        b = float(right)
    except (TypeError, ValueError):
        return False
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def correct_hash_key(value: Any) -> Any:
    """The *correct* hash-join key normalization.

    ``0`` and ``-0`` hash identically, numerics across int/float/decimal collapse
    onto a canonical form, strings are compared case-sensitively as stored.
    The faulty engines override this with :func:`buggy` variants from
    :mod:`repro.engine.faults`.
    """
    if is_null(value):
        return NULL
    return canonical_numeric(value)


def string_hash_key(value: Any) -> Any:
    """Hash key used when the comparison domain is STRING."""
    if is_null(value):
        return NULL
    return to_string(value)
