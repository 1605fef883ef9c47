"""Every oracle judges two result sets by one relation: ``agree``.

:func:`~repro.engine.resultset.agree` replaced six comparisons that each
oracle used to write itself.  The reference functions below are those
comparisons, kept verbatim, and the property tests show that each relation
decides exactly as the comparison it replaced, over result sets of bool,
int, float, Decimal, str and NULL values in any order and with duplicates.
They also check the laws the relations must obey among themselves.

An AST guard keeps the comparison in one place: no ``src/repro`` module
outside ``engine/resultset.py`` reads the normalized views of a result set
or compares values with a float tolerance.
"""

import ast
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Relation, ResultSet, agree
from repro.lint.engine import iter_python_files
from repro.sqlvalue.comparison import values_close
from repro.sqlvalue.values import NULL, normalize_row, row_sort_key

COLUMNS = ("a", "b")

# ------------------------------------------------ the replaced comparisons


def ground_truth_full_set(expected, observed):
    """``GroundTruth.matches`` in its full-set mode."""
    return observed.normalized() == expected.normalized()


def ground_truth_subset(expected, observed):
    """``GroundTruth.matches`` in its subset mode."""
    return expected.normalized() <= observed.normalized()


def plan_signatures_equal(expected, observed):
    """TQS!GT: two plans fall into one ``Counter`` class of signatures."""
    return expected.normalized() == observed.normalized()


def norec_agrees(reference, optimized):
    """NoREC files an incident when this is false."""
    return not optimized.result.normalized() != reference.result.normalized()


def tlp_agrees(full, partitions):
    """TLP: the union of the partitions' rows equals the whole query's."""
    union = set()
    for partition in partitions:
        union |= partition.normalized()
    return not union != full.normalized()


def pqs_agrees(pivot_row, observed):
    """PQS: the normalized pivot row is among the observed rows."""
    return normalize_row(pivot_row) in observed.normalized()


def result_sets_match(reference, observed, rel_tol=1e-9, abs_tol=1e-12,
                      bag=False):
    """The differential oracle's order-insensitive, float-tolerant equality."""
    if bag:
        if reference.normalized_bag() == observed.normalized_bag():
            return True
        ref_sorted = sorted(reference.normalized_bag().elements(),
                            key=row_sort_key)
        obs_sorted = sorted(observed.normalized_bag().elements(),
                            key=row_sort_key)
    else:
        ref_rows = reference.normalized()
        obs_rows = observed.normalized()
        if ref_rows == obs_rows:
            return True
        ref_sorted = sorted(ref_rows, key=row_sort_key)
        obs_sorted = sorted(obs_rows, key=row_sort_key)
    if len(ref_sorted) != len(obs_sorted):
        return False
    for ref_row, obs_row in zip(ref_sorted, obs_sorted):
        if len(ref_row) != len(obs_row):
            return False
        for ref_value, obs_value in zip(ref_row, obs_row):
            if not values_close(ref_value, obs_value, rel_tol=rel_tol,
                                abs_tol=abs_tol):
                return False
    return True


class _Report:
    """The one field of an execution report NoREC reads."""

    def __init__(self, result):
        self.result = result


# --------------------------------------------------------------- strategies

# Small pools make equal values of different types (1, 1.0, Decimal('1.00'),
# True) and near-equal floats collide often; the open draws add the rest.
VALUES = st.one_of(
    st.just(NULL),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1 + 0.2, 0.3, 1.0 + 1e-12,
                     float("inf"), float("-inf")]),
    st.floats(allow_nan=False),
    st.sampled_from([Decimal("1"), Decimal("1.00"), Decimal("0.3"),
                     Decimal("0.5"), Decimal("-0")]),
    st.decimals(allow_nan=False, allow_infinity=False, places=3,
                min_value=-10, max_value=10),
    st.sampled_from(["", "a", "A", "1"]),
    st.text(max_size=3),
)
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=6)
RELATIONS = st.sampled_from(list(Relation))


@st.composite
def result_pairs(draw):
    """An expected result and an observed one drawn near it: shuffled, with
    duplicated, dropped or extra rows, and with some values swapped for an
    equal one of another type."""
    rows = draw(ROWS)
    observed = list(rows)
    if rows:
        observed += draw(st.lists(st.sampled_from(rows), max_size=3))
    if draw(st.booleans()):
        observed += draw(ROWS)
    if observed and draw(st.booleans()):
        del observed[draw(st.integers(0, len(observed) - 1))]
    if draw(st.booleans()):
        twins = {1: Decimal("1.00"), 0: -0.0, 0.3: Decimal("0.3")}
        observed = [tuple(twins.get(v, v) if type(v) is not bool else v
                          for v in row) for row in observed]
    observed = draw(st.permutations(observed))
    return ResultSet(COLUMNS, rows), ResultSet(COLUMNS, observed)


# ------------------------------------------- each relation equals its site


@settings(max_examples=200, deadline=None)
@given(pair=result_pairs())
def test_each_relation_decides_as_the_comparison_it_replaced(pair):
    expected, observed = pair
    set_equal = agree(expected, observed, Relation.SET_EQUAL)
    assert set_equal == ground_truth_full_set(expected, observed)
    assert set_equal == plan_signatures_equal(expected, observed)
    assert set_equal == norec_agrees(_Report(expected), _Report(observed))
    assert (agree(expected, observed, Relation.SUBSET)
            == ground_truth_subset(expected, observed))
    for bag, relation in ((False, Relation.SET_EQUAL),
                          (True, Relation.BAG_EQUAL)):
        assert (agree(expected, observed, relation, tolerant=True)
                == result_sets_match(expected, observed, bag=bag))


@settings(max_examples=200, deadline=None)
@given(full=ROWS, partitions=st.lists(ROWS, min_size=3, max_size=3),
       data=st.data())
def test_tlp_agrees_with_the_union_of_its_partitions(full, partitions, data):
    if data.draw(st.booleans()):
        # Partition the whole query's own rows, so agreement is common.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(full)),
                                         min_size=2, max_size=2)))
        partitions = [full[:cuts[0]], full[cuts[0]:cuts[1]], full[cuts[1]:]]
    whole = ResultSet(COLUMNS, full)
    results = [ResultSet(COLUMNS, rows) for rows in partitions]
    union = ResultSet(COLUMNS, (row for result in results for row in result.rows))
    assert agree(whole, union, Relation.SET_EQUAL) == tlp_agrees(whole, results)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, data=st.data())
def test_pqs_agrees_when_the_pivot_is_among_the_rows(rows, data):
    pivot_row = (data.draw(st.sampled_from(rows)) if rows and data.draw(st.booleans())
                 else data.draw(st.tuples(VALUES, VALUES)))
    observed = ResultSet(COLUMNS, rows)
    pivot = ResultSet(COLUMNS, [pivot_row])
    assert (agree(pivot, observed, Relation.SUBSET)
            == pqs_agrees(pivot_row, observed))


# --------------------------------------------------- laws among relations


@settings(max_examples=200, deadline=None)
@given(pair=result_pairs(), relation=RELATIONS)
def test_relation_laws(pair, relation):
    expected, observed = pair
    for equality in (Relation.SET_EQUAL, Relation.BAG_EQUAL):
        assert agree(expected, expected, equality)
        assert agree(expected, ResultSet(COLUMNS, expected.rows[::-1]), equality)
        assert (agree(expected, observed, equality)
                == agree(observed, expected, equality))
    if agree(expected, observed, Relation.BAG_EQUAL):
        assert agree(expected, observed, Relation.SET_EQUAL)
    if agree(expected, observed, Relation.SET_EQUAL):
        assert agree(expected, observed, Relation.SUBSET)
        assert agree(observed, expected, Relation.SUBSET)
    if agree(expected, observed, relation):
        assert agree(expected, observed, relation, tolerant=True)


def test_tolerance_absorbs_only_float_drift():
    drifted = ResultSet(COLUMNS, [(0.1 + 0.2, "x")])
    exact = ResultSet(COLUMNS, [(Decimal("0.3"), "x")])
    assert not agree(exact, drifted, Relation.SET_EQUAL)
    assert agree(exact, drifted, Relation.SET_EQUAL, tolerant=True)
    assert not agree(ResultSet(COLUMNS, [(0.3, "x")]),
                     ResultSet(COLUMNS, [(0.4, "x")]),
                     Relation.SET_EQUAL, tolerant=True)


# ---------------------------------------------------------------- the guard

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = "engine/resultset.py"
GUARDED_METHODS = {"normalized", "normalized_bag"}
GUARDED_FUNCTIONS = {"values_close"}


def _comparisons_in(tree: ast.AST):
    """The line and name of every guarded call in *tree*."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and (
                func.attr in GUARDED_METHODS | GUARDED_FUNCTIONS):
            yield node.lineno, func.attr
        elif isinstance(func, ast.Name) and func.id in GUARDED_FUNCTIONS:
            yield node.lineno, func.id


def result_comparisons():
    """``path:line name`` for every guarded call outside the owner."""
    found = []
    for path in map(Path, iter_python_files([str(PACKAGE)])):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative == OWNER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{relative}:{line} {name}"
                     for line, name in _comparisons_in(tree))
    return found


def test_no_module_outside_resultset_compares_result_sets():
    assert result_comparisons() == []


@pytest.mark.parametrize("source, guarded", [
    ("left.normalized() == right.normalized()", True),
    ("row in report.result.normalized()", True),
    ("result.normalized_bag().elements()", True),
    ("values_close(a, b)", True),
    ("comparison.values_close(a, b, rel_tol=1e-9)", True),
    ("agree(expected, observed, Relation.SET_EQUAL)", False),
    ("normalize_row(row)", False),
    ("self._normalized = None", False),
])
def test_the_guard_finds_hand_written_comparisons(source, guarded):
    assert bool(list(_comparisons_in(ast.parse(source)))) is guarded
