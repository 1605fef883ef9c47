"""Tests for NULL semantics, canonical numerics and row normalization."""

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.sqlvalue import (
    NULL,
    canonical_numeric,
    is_null,
    normalize_row,
    null_if_none,
    render_literal,
    row_sort_key,
    value_sort_key,
)


class TestNullSingleton:
    def test_null_is_singleton(self):
        from repro.sqlvalue.values import _Null

        assert _Null() is NULL

    def test_is_null_accepts_none_and_marker(self):
        assert is_null(NULL)
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_if_none(self):
        assert null_if_none(None) is NULL
        assert null_if_none(5) == 5

    def test_null_repr(self):
        assert repr(NULL) == "NULL"

    def test_null_survives_deepcopy(self):
        import copy

        assert copy.deepcopy(NULL) is NULL
        assert copy.copy(NULL) is NULL


class TestCanonicalNumeric:
    def test_negative_zero_collapses(self):
        assert canonical_numeric(-0.0) == 0.0
        assert str(canonical_numeric(-0.0)) == "0.0"

    def test_int_float_decimal_collapse(self):
        assert canonical_numeric(1) == canonical_numeric(1.0) == canonical_numeric(Decimal("1.0"))

    def test_fractional_decimal_becomes_float(self):
        assert canonical_numeric(Decimal("1.5")) == 1.5

    def test_bool_becomes_int(self):
        assert canonical_numeric(True) == 1
        assert canonical_numeric(False) == 0

    def test_strings_untouched(self):
        assert canonical_numeric("abc") == "abc"

    def test_null_passthrough(self):
        assert canonical_numeric(NULL) is NULL


class TestRowNormalization:
    def test_normalize_row_mixes_types(self):
        assert normalize_row((1, 1.0, NULL)) == (1, 1, NULL)

    def test_normalize_row_is_hashable(self):
        assert hash(normalize_row((1, "a", NULL))) == hash(normalize_row((1.0, "a", None and NULL or NULL)))

    def test_rows_with_same_canonical_values_compare_equal(self):
        assert normalize_row((Decimal("2"), -0.0)) == normalize_row((2, 0.0))


class TestSortKeys:
    def test_null_sorts_first(self):
        values = ["b", NULL, 3, 1.5]
        ordered = sorted(values, key=value_sort_key)
        assert ordered[0] is NULL

    @pytest.mark.parametrize("values, expected", [
        (["a", 2], [2, "a"]),
        ([2**53, 2**53 + 1], [2**53, 2**53 + 1]),
        (["a", 10**400, 1.5], [1.5, 10**400, "a"]),
    ], ids=["str_and_int", "max_tie_at_2_53", "beyond_float_range"])
    def test_numbers_before_strings(self, values, expected):
        assert sorted(values, key=value_sort_key) == expected
        assert min(values, key=value_sort_key) == expected[0]
        assert max(values, key=value_sort_key) == expected[-1]

    def test_row_sort_key_orders_rows(self):
        rows = [(2, "b"), (1, "a"), (NULL, "z")]
        ordered = sorted(rows, key=row_sort_key)
        assert ordered[0][0] is NULL
        assert ordered[1] == (1, "a")


class TestRenderLiteral:
    def test_null(self):
        assert render_literal(NULL) == "NULL"

    def test_string_escaping(self):
        assert render_literal("O'Hara") == "'O''Hara'"

    def test_numbers(self):
        assert render_literal(3) == "3"
        assert render_literal(Decimal("2.50")) == "2.50"

    def test_bool(self):
        assert render_literal(True) == "1"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_numeric_idempotent(value):
    once = canonical_numeric(value)
    assert canonical_numeric(once) == once


@given(st.lists(st.one_of(st.integers(-100, 100), st.text(max_size=5),
                          st.none()), max_size=5))
def test_normalize_row_is_deterministic(values):
    row = tuple(NULL if v is None else v for v in values)
    assert normalize_row(row) == normalize_row(row)
