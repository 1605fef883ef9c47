"""Tests for three-valued logic comparisons and hash-key normalization."""

from decimal import Decimal
from hypothesis import example, given, strategies as st

from repro.sqlvalue import (
    NULL,
    UNKNOWN,
    correct_hash_key,
    logical_and,
    logical_not,
    logical_or,
    null_safe_equal,
    sql_compare,
    sql_equal,
    sql_greater,
    sql_less,
    sql_less_equal,
    sql_not_equal,
    truth_value,
)
from repro.sqlvalue.comparison import _coerce_pair


class TestSqlCompare:
    def test_null_is_unknown(self):
        assert sql_compare(NULL, 1) is UNKNOWN
        assert sql_compare(1, NULL) is UNKNOWN
        assert sql_compare(NULL, NULL) is UNKNOWN

    def test_numeric_cross_type(self):
        assert sql_compare(1, 1.0) == 0
        assert sql_compare(Decimal("2.5"), 2) == 1
        assert sql_compare(2, Decimal("2.5")) == -1

    def test_string_number_uses_exact_domain(self):
        assert sql_equal("123", 123) is True
        assert sql_equal("9007199254740993", 9007199254740993) is True
        assert sql_equal("9007199254740993", 9007199254740992) is False

    def test_negative_zero_equals_zero(self):
        assert sql_equal(-0.0, 0.0) is True
        assert sql_equal(Decimal("-0"), 0) is True

    def test_string_comparison(self):
        assert sql_less("apple", "banana") is True
        assert sql_greater("b", "a") is True

    def test_non_numeric_string_vs_number(self):
        assert sql_equal("abc", 0) is True  # MySQL leading-prefix conversion

    def test_operators(self):
        assert sql_not_equal(1, 2) is True
        assert sql_less_equal(2, 2) is True
        assert sql_greater(3, 2) is True


class TestNullSafeEqual:
    def test_null_null(self):
        assert null_safe_equal(NULL, NULL) is True

    def test_null_value(self):
        assert null_safe_equal(NULL, 0) is False
        assert null_safe_equal(0, NULL) is False

    def test_values(self):
        assert null_safe_equal(1, 1.0) is True
        assert null_safe_equal(1, 2) is False


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert logical_and(True, True) is True
        assert logical_and(True, False) is False
        assert logical_and(False, UNKNOWN) is False
        assert logical_and(True, UNKNOWN) is UNKNOWN

    def test_or_truth_table(self):
        assert logical_or(False, False) is False
        assert logical_or(False, True) is True
        assert logical_or(True, UNKNOWN) is True
        assert logical_or(False, UNKNOWN) is UNKNOWN

    def test_not(self):
        assert logical_not(True) is False
        assert logical_not(UNKNOWN) is UNKNOWN

    def test_truth_value_of_values(self):
        assert truth_value(NULL) is UNKNOWN
        assert truth_value(0) is False
        assert truth_value(2.5) is True
        assert truth_value("abc") is False
        assert truth_value("1x") is True


class TestCorrectHashKey:
    def test_negative_zero_same_bucket(self):
        assert correct_hash_key(-0.0) == correct_hash_key(0.0)

    def test_cross_type_same_bucket(self):
        assert correct_hash_key(1) == correct_hash_key(1.0) == correct_hash_key(Decimal(1))

    def test_null_passthrough(self):
        assert correct_hash_key(NULL) is NULL

    def test_big_integers_stay_distinct(self):
        assert correct_hash_key(2 ** 53) != correct_hash_key(2 ** 53 + 1)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_sql_compare_is_antisymmetric(a, b):
    assert sql_compare(a, b) == -sql_compare(b, a)


@given(st.one_of(st.integers(-100, 100), st.floats(-100, 100, allow_nan=False),
                 st.text(max_size=4)))
def test_sql_equal_is_reflexive_for_non_null(value):
    assert sql_equal(value, value) is True


@given(st.booleans() | st.none(), st.booleans() | st.none())
def test_de_morgan_holds_in_3vl(a, b):
    assert logical_not(logical_and(a, b)) == logical_or(logical_not(a), logical_not(b))


def _coerced_compare(left, right):
    """``sql_compare`` by coercing the pair first, as it did for Decimals."""
    a, b = _coerce_pair(left, right)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _outcome(compare, left, right):
    try:
        return compare(left, right)
    except Exception as error:
        return type(error)


@given(st.decimals(allow_nan=True), st.decimals(allow_nan=True))
@example(Decimal("NaN"), Decimal("1"))
@example(Decimal("sNaN"), Decimal("sNaN"))
@example(Decimal("-0"), Decimal("0"))
@example(Decimal("1.0"), Decimal("1"))
def test_native_decimal_compare_equals_the_coerced_one(left, right):
    """Two Decimals compare natively with the coerced path's answer or error."""
    assert _outcome(sql_compare, left, right) == _outcome(
        _coerced_compare, left, right)
