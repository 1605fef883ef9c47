"""Tests for the expression AST and three-valued evaluation (its SQL text is
tested in test_sqlrender)."""

from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import ExpressionError
from repro.expr.ast import _membership
from repro.expr import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    EvalContext,
    FunctionCall,
    InList,
    IsNull,
    Not,
    Or,
    PredicateBuilder,
    column,
    conjoin,
    eq,
    lit,
)
from repro.sqlvalue import NULL
from repro.sqlvalue.comparison import (
    logical_and,
    logical_or,
    sql_compare,
    truth_value,
)
from repro.catalog import Column as CatColumn
from repro.sqlvalue import integer, varchar


_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3, 3, width=16),
                    st.sampled_from([0.0, -0.0, 2 ** 53, float(2 ** 53)]))
_STRINGS = st.text(alphabet="ab1 ", max_size=2)
#: Every kind of value an IN-list probe can meet, the awkward ones included.
_IN_LIST_VALUES = st.one_of(
    _NUMBERS, _STRINGS,
    st.sampled_from([NULL, float("nan"), True, False, Decimal("1"),
                     Decimal("-0"), Decimal("2.5"), 2 ** 53 + 1]),
)


def evaluate(expr, **values):
    """Evaluate *expr* over one tuple row laid out in keyword order."""
    return expr.compile(tuple(values))(tuple(values.values()))


class TestColumnRef:
    def test_qualified_lookup(self):
        ref = column("t1", "a")
        assert evaluate(ref, **{"t1.a": 5}) == 5

    def test_unqualified_lookup(self):
        assert evaluate(ColumnRef(None, "a"), a=7) == 7

    def test_suffix_fallback(self):
        assert evaluate(ColumnRef(None, "a"), **{"t1.a": 3}) == 3

    def test_missing_column_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(column("t1", "a"), **{"t2.b": 1})

    def test_missing_column_raises_only_when_evaluated(self):
        compiled = column("t1", "a").compile(("t2.b",))
        with pytest.raises(ExpressionError, match="t1.a"):
            compiled((1,))

    def test_slot_resolution_order(self):
        # Qualified name first, then the bare name, then a unique suffix.
        assert column("t1", "a").slot(("a", "t1.a")) == 1
        assert column("t1", "a").slot(("t2.a", "a")) == 1
        assert ColumnRef(None, "a").slot(("t1.b", "t2.a")) == 1
        assert ColumnRef(None, "a").slot(("t1.a", "t2.a")) is None
        assert column("t1", "a").slot(("t2.a",)) is None


class TestComparisons:
    def test_equality_and_nulls(self):
        expr = eq(column("t", "a"), lit(5))
        assert evaluate(expr, **{"t.a": 5}) is True
        assert evaluate(expr, **{"t.a": 6}) is False
        assert evaluate(expr, **{"t.a": NULL}) is NULL

    def test_null_safe_equal(self):
        expr = Comparison("<=>", column("t", "a"), lit(NULL))
        assert evaluate(expr, **{"t.a": NULL}) is True
        assert evaluate(expr, **{"t.a": 0}) is False

    def test_invalid_operator(self):
        with pytest.raises(ExpressionError):
            Comparison("===", lit(1), lit(1))


class TestLogicalConnectives:
    def test_and_short_circuits_false(self):
        expr = And(eq(lit(1), lit(2)), eq(column("t", "a"), lit(1)))
        assert evaluate(expr) is False  # never touches the missing column

    def test_and_unknown(self):
        expr = And(eq(lit(1), lit(1)), eq(lit(NULL), lit(1)))
        assert evaluate(expr) is NULL

    def test_or_unknown_and_true(self):
        assert evaluate(Or(eq(lit(NULL), lit(1)), eq(lit(1), lit(1)))) is True
        assert evaluate(Or(eq(lit(NULL), lit(1)), eq(lit(1), lit(2)))) is NULL

    def test_not(self):
        assert evaluate(Not(eq(lit(1), lit(1)))) is False
        assert evaluate(Not(eq(lit(NULL), lit(1)))) is NULL

    def test_flattening(self):
        nested = And(eq(lit(1), lit(1)), And(eq(lit(2), lit(2)), eq(lit(3), lit(3))))
        assert len(nested.operands) == 3

    def test_empty_and_rejected(self):
        with pytest.raises(ExpressionError):
            And()

    def test_conjoin(self):
        assert conjoin([]) is None
        single = eq(lit(1), lit(1))
        assert conjoin([single]) is single
        assert isinstance(conjoin([single, eq(lit(2), lit(2))]), And)


class TestOtherPredicates:
    def test_between(self):
        expr = Between(column("t", "a"), lit(1), lit(10))
        assert evaluate(expr, **{"t.a": 5}) is True
        assert evaluate(expr, **{"t.a": 11}) is False
        assert evaluate(expr, **{"t.a": NULL}) is NULL
        assert evaluate(Between(lit(5), lit(1), lit(10), negated=True)) is False

    def test_in_list_null_semantics(self):
        expr = InList(column("t", "a"), (lit(1), lit(NULL)))
        assert evaluate(expr, **{"t.a": 1}) is True
        assert evaluate(expr, **{"t.a": 2}) is NULL  # unknown because of the NULL item
        not_in = InList(column("t", "a"), (lit(1), lit(2)), negated=True)
        assert evaluate(not_in, **{"t.a": 3}) is True
        assert evaluate(not_in, **{"t.a": 1}) is False

    @given(
        items=st.one_of(
            st.lists(_NUMBERS, min_size=1, max_size=5),
            st.lists(_STRINGS, min_size=1, max_size=5),
            st.lists(_IN_LIST_VALUES, min_size=1, max_size=5),
        ),
        probe=_IN_LIST_VALUES,
        negated=st.booleans(),
    )
    @example(items=[0.0], probe=-0.0, negated=False)
    @example(items=[1, 2.5], probe=True, negated=True)
    @example(items=[1, 2], probe=Decimal("1.0"), negated=False)
    @example(items=["1"], probe=1, negated=False)
    @example(items=[1.0], probe=float("nan"), negated=True)
    @example(items=["a"], probe=float("nan"), negated=False)
    def test_literal_in_list_equals_membership(self, items, probe, negated):
        # NaN against a string still raises (sql_compare's open NaN
        # decision): the compiled list must raise exactly when
        # _membership does.
        def outcome(compute):
            try:
                value = compute()
            except ArithmeticError as error:
                return type(error)
            return type(value), value

        expr = InList(column("t", "a"), tuple(lit(item) for item in items),
                      negated=negated)
        got = outcome(lambda: evaluate(expr, **{"t.a": probe}))
        expected = (NULL.__class__, NULL) if probe is NULL else outcome(
            lambda: _membership(probe, items, negated))
        assert got == expected

    def test_literals_of_one_kind_compile_to_a_set_probe(self):
        layout = ("t.a",)
        for items in ((1, 2.5, -0.0), ("a", "b")):
            expr = InList(column("t", "a"), tuple(lit(item) for item in items))
            assert expr.compile(layout).__name__ == "in_literals"
        for items in ((1, "a"), (1, NULL), (True,), (Decimal("1"),),
                      (float("nan"),)):
            expr = InList(column("t", "a"), tuple(lit(item) for item in items))
            assert expr.compile(layout).__name__ == "in_list"

    def test_is_null(self):
        assert evaluate(IsNull(lit(NULL))) is True
        assert evaluate(IsNull(lit(1), negated=True)) is True

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_decimal_with_float_arithmetic_is_double(self, op):
        # MySQL: an approximate operand makes the result DOUBLE.
        for left, right in ((Decimal("1.5"), 2.5), (2.5, Decimal("1.5"))):
            value = Arithmetic(op, lit(left), lit(right)).eval(EvalContext({}))
            double = Arithmetic(op, lit(float(left)), lit(float(right)))
            assert type(value) is float
            assert value == double.eval(EvalContext({}))

    def test_arithmetic(self):
        assert evaluate(Arithmetic("+", lit(2), lit(3))) == 5
        assert evaluate(Arithmetic("/", lit(1), lit(0))) is NULL
        assert evaluate(Arithmetic("*", lit(NULL), lit(3))) is NULL
        with pytest.raises(ExpressionError):
            Arithmetic("%", lit(1), lit(1))

    def test_functions(self):
        assert evaluate(FunctionCall("ABS", (lit(-3),))) == 3
        assert evaluate(FunctionCall("LENGTH", (lit("abcd"),))) == 4
        assert evaluate(FunctionCall("COALESCE", (lit(NULL), lit(7)))) == 7
        with pytest.raises(ExpressionError):
            FunctionCall("MAGIC", (lit(1),))


class TestReferences:
    def test_references_collects_columns(self):
        expr = And(eq(column("t1", "a"), column("t2", "b")),
                   Between(column("t1", "c"), lit(1), lit(2)))
        assert expr.references() == {("t1", "a"), ("t2", "b"), ("t1", "c")}


class TestPredicateBuilder:
    def test_builder_produces_evaluable_predicates(self):
        import random

        builder = PredicateBuilder(random.Random(5))
        col = CatColumn("price", integer())
        for _ in range(30):
            predicate = builder.build("t", col, [1, 2, 3, 10])
            value = evaluate(predicate, **{"t.price": 2})
            assert value in (True, False, NULL)

    def test_builder_handles_all_null_pool(self):
        import random

        builder = PredicateBuilder(random.Random(5))
        predicate = builder.build("t", CatColumn("name", varchar(5)), [NULL])
        assert isinstance(predicate, IsNull)


def test_eval_adapter_matches_compile():
    expr = And(eq(column("t", "a"), lit(5)), IsNull(ColumnRef(None, "b"), negated=True))
    row = {"t.a": 5, "u.b": "x"}
    assert expr.eval(EvalContext(row)) is True
    assert expr.compile(("t.a", "u.b"))((5, "x")) is True
    assert expr.eval(EvalContext({"t.a": 5, "u.b": NULL})) is False


SQL_VALUES = [True, False, NULL, 0, 1, -2, 0.0, 2.5, float("nan"), Decimal("0"),
              Decimal("1.5"), "", "abc", "1x", "0"]


def _reference_connective(values, combine, start, stop):
    """Fold three-valued AND/OR the way the dictionary interpreter did."""
    result = start
    for value in values:
        result = combine(result, truth_value(value))
        if result is stop:
            return stop
    return NULL if result is None else result


@given(st.lists(st.sampled_from(SQL_VALUES), min_size=1, max_size=4))
def test_connectives_match_three_valued_fold(values):
    operands = [lit(value) for value in values]
    assert evaluate(And(*operands)) is _reference_connective(
        values, logical_and, True, False)
    assert evaluate(Or(*operands)) is _reference_connective(
        values, logical_or, False, True)


@given(st.sampled_from(SQL_VALUES), st.sampled_from(SQL_VALUES),
       st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
@example(float("nan"), float("nan"), "=")  # sql_compare calls NaN equal
@example(float("nan"), 1.0, "=")
def test_comparisons_match_sql_compare(left, right, op):
    try:
        cmp = sql_compare(left, right)
    except Exception as error:  # NaN against a string or Decimal
        with pytest.raises(type(error)):
            evaluate(Comparison(op, lit(left), lit(right)))
        return
    expected = NULL if cmp is None else {
        "=": cmp == 0, "<>": cmp != 0, "!=": cmp != 0, "<": cmp < 0,
        "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0,
    }[op]
    assert evaluate(Comparison(op, lit(left), lit(right))) is expected


@given(st.integers(-50, 50))
def test_between_matches_manual_bounds(value):
    expr = Between(lit(value), lit(-10), lit(10))
    assert evaluate(expr) == (-10 <= value <= 10)
