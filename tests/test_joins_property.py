"""Property-based tests for join semantics on randomly generated tables."""
import math
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.plan import (
    EFFECT_NAMES,
    MATCHING_EFFECT_NAMES,
    ExecutionHooks,
    Join,
    JoinAlgorithm,
    JoinKeySpec,
    JoinType,
    PhysicalOperator,
    TableScan,
    TriggerContext,
)
from repro.sqlvalue import NULL, TypeCategory, bigint, integer, varchar
from repro.sqlvalue.casts import cast_for_domain
from repro.sqlvalue.comparison import correct_hash_key, sql_compare, sql_equal
from repro.sqlvalue.values import is_null, normalize_row, row_sort_key
from repro.storage import Database

key_values = st.one_of(st.integers(-3, 3), st.just(NULL))


def build_db(left_keys, right_keys) -> Database:
    left_schema = TableSchema(
        "child", [Column("id", integer()), Column("fk", bigint())], implicit_key=("id",)
    )
    right_schema = TableSchema(
        "parent", [Column("pk", bigint()), Column("payload", varchar(8))],
        implicit_key=("pk",),
    )
    schema = DatabaseSchema(
        [left_schema, right_schema],
        [ForeignKey("child", ("fk",), "parent", ("pk",))],
    )
    db = Database(schema)
    for index, key in enumerate(left_keys):
        db.insert("child", {"id": index, "fk": key})
    for index, key in enumerate(right_keys):
        db.insert("parent", {"pk": key, "payload": f"p{index}"})
    return db


def run(db, join_type, algorithm):
    join = Join(
        TableScan(db, "child", "c"),
        TableScan(db, "parent", "p"),
        join_type,
        algorithm,
        JoinKeySpec("c.fk", "p.pk", TypeCategory.DECIMAL),
        hooks=ExecutionHooks(),
    )
    columns = join.output_columns()
    return [dict(zip(columns, row)) for row in join.execute()]


def signature(rows, columns):
    return sorted(
        (normalize_row(tuple(row[c] for c in columns)) for row in rows),
        key=row_sort_key,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(key_values, max_size=8), st.lists(key_values, max_size=6))
def test_all_algorithms_agree_on_every_join_type(left_keys, right_keys):
    """A correct engine must return identical results regardless of algorithm."""
    db = build_db(left_keys, right_keys)
    for join_type in JoinType:
        columns = ["c.id"] if join_type in (JoinType.SEMI, JoinType.ANTI) else ["c.id", "p.pk"]
        reference = signature(run(db, join_type, JoinAlgorithm.NESTED_LOOP), columns)
        for algorithm in JoinAlgorithm:
            assert signature(run(db, join_type, algorithm), columns) == reference


@settings(max_examples=60, deadline=None)
@given(st.lists(key_values, max_size=8), st.lists(key_values, max_size=6))
def test_inner_join_equals_filtered_cross_product(left_keys, right_keys):
    db = build_db(left_keys, right_keys)
    inner = signature(run(db, JoinType.INNER, JoinAlgorithm.HASH), ["c.id", "p.pk"])
    expected = []
    for i, lk in enumerate(left_keys):
        for rk in right_keys:
            if not is_null(lk) and not is_null(rk) and sql_equal(lk, rk) is True:
                expected.append(normalize_row((i, rk)))
    assert inner == sorted(expected, key=row_sort_key)


@settings(max_examples=60, deadline=None)
@given(st.lists(key_values, max_size=8), st.lists(key_values, max_size=6))
def test_semi_plus_anti_partition_left_side(left_keys, right_keys):
    """SEMI and ANTI join results partition the left input exactly."""
    db = build_db(left_keys, right_keys)
    semi = {row["c.id"] for row in run(db, JoinType.SEMI, JoinAlgorithm.HASH)}
    anti = {row["c.id"] for row in run(db, JoinType.ANTI, JoinAlgorithm.HASH)}
    assert semi | anti == set(range(len(left_keys)))
    assert semi & anti == set()


@settings(max_examples=60, deadline=None)
@given(st.lists(key_values, max_size=8), st.lists(key_values, max_size=6))
def test_left_outer_contains_inner_plus_padded(left_keys, right_keys):
    db = build_db(left_keys, right_keys)
    inner = signature(run(db, JoinType.INNER, JoinAlgorithm.SORT_MERGE), ["c.id", "p.pk"])
    left = run(db, JoinType.LEFT_OUTER, JoinAlgorithm.SORT_MERGE)
    matched = signature([row for row in left if row["p.pk"] is not NULL], ["c.id", "p.pk"])
    assert matched == inner
    padded_ids = {row["c.id"] for row in left if row["p.pk"] is NULL}
    semi_ids = {row["c.id"] for row in run(db, JoinType.SEMI, JoinAlgorithm.HASH)}
    assert padded_ids == set(range(len(left_keys))) - semi_ids


@settings(max_examples=40, deadline=None)
@given(st.lists(key_values, max_size=6), st.lists(key_values, max_size=5))
def test_full_outer_is_union_of_left_and_right_outer(left_keys, right_keys):
    db = build_db(left_keys, right_keys)
    columns = ["c.id", "p.pk", "p.payload"]
    full = signature(run(db, JoinType.FULL_OUTER, JoinAlgorithm.HASH), columns)
    left = signature(run(db, JoinType.LEFT_OUTER, JoinAlgorithm.HASH), columns)
    right = signature(run(db, JoinType.RIGHT_OUTER, JoinAlgorithm.HASH), columns)
    assert set(left) <= set(full)
    assert set(right) <= set(full)
    assert set(full) == set(left) | set(right)


class RawKeyHooks(ExecutionHooks):
    """Bug-free hooks that hand join keys to the matcher unnormalized."""

    def key_function(self, domain, trigger):
        return lambda value: value


class RowsOf(PhysicalOperator):
    """A fixed list of one-column rows."""

    def __init__(self, column, values):
        self.column = column
        self.values = values

    def rows(self):
        return iter([(value,) for value in self.values])

    def output_columns(self):
        return [self.column]


mixed_keys = st.sampled_from(
    ["1", "a", "", 1, 1.0, 2, 2.5, 0.1, Decimal("1.0"), Decimal("0.1"),
     Decimal("0"), True, False, -0.0, 0, 0.0, float("nan"), float("inf"), NULL]
)
numeric_keys = st.one_of(
    st.integers(-2, 2), st.sampled_from([-0.0, 0.0, 0.1, 1.0, 1.5, 2.0, float("inf")]),
    st.just(NULL),
)
string_keys = st.sampled_from(["", "1", "a", "ab", "b", NULL])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(mixed_keys, numeric_keys, string_keys), max_size=8),
    st.one_of(
        st.lists(mixed_keys, max_size=8),
        st.lists(numeric_keys, max_size=8),
        st.lists(string_keys, max_size=8),
    ),
)
@example([Decimal("0.1"), "1", True, 1.0], [0.1, 1, 2.0, 1])
@example(["1", "b", -0.0, 0], ["1", "a", NULL, "1", "0"])
@example([1, 0.0], [float("nan"), 1, 0])
def test_nested_loop_matches_equal_brute_force_sql_compare(left_keys, right_keys):
    """Bucketed or scanned, every probe matches exactly the right rows that
    ``sql_compare`` calls equal, in ascending right-row order."""
    join = Join(
        RowsOf("l.k", left_keys),
        RowsOf("r.k", right_keys),
        JoinType.INNER,
        JoinAlgorithm.NESTED_LOOP,
        JoinKeySpec("l.k", "r.k", TypeCategory.DECIMAL),
        hooks=RawKeyHooks(),
    )
    left_rows = list(join.left.rows())
    right_rows = list(join.right.rows())
    try:
        expected = [
            [] if is_null(value) else [
                index for index, candidate in enumerate(right_keys)
                if not is_null(candidate) and sql_compare(value, candidate) == 0
            ]
            for value in left_keys
        ]
    except InvalidOperation:
        # NaN against a string or Decimal has no exact comparison; the join
        # must fail the same way rather than guess.
        with pytest.raises(InvalidOperation):
            join._find_matches(left_rows, right_rows, TriggerContext())
        return
    assert join._find_matches(left_rows, right_rows, TriggerContext()) == expected


EDGE_KEYS = [
    float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 1.5, -2.0, 5e-324,
    2**53 + 1, -(2**53 + 1), 10**30, 10**400, 0, -7,
    Decimal("1.0"), Decimal("-0"), Decimal("0.1"), Decimal("1E+30"), Decimal("NaN"),
    True, False, NULL, None, "", "1", "-0", " 2.5e3x", "abc",
]
"""Keys on which a shortcut could plausibly diverge from the exact rule."""


def _same_key(actual, expected):
    """Equal in type and value, NaN counting as equal to NaN."""
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, float) and math.isnan(expected):
        return math.isnan(actual)
    return actual == expected or actual is expected


def _assert_exact_key(domain, value):
    key_of = ExecutionHooks().key_function(domain, TriggerContext())
    try:
        expected = correct_hash_key(cast_for_domain(value, domain))
    except Exception as error:  # e.g. float(10**400)
        with pytest.raises(type(error)):
            key_of(value)
        return
    actual = key_of(value)
    assert _same_key(actual, expected), (domain, value, actual, expected)


@pytest.mark.parametrize("domain", list(TypeCategory))
def test_key_function_is_exact_on_edge_keys(domain):
    for value in EDGE_KEYS:
        _assert_exact_key(domain, value)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(TypeCategory)),
    st.one_of(mixed_keys, numeric_keys, string_keys, st.sampled_from(EDGE_KEYS),
              st.integers(), st.floats(), st.decimals(), st.text(max_size=4)),
)
def test_key_function_matches_the_exact_rule(domain, value):
    """The bug-free key function equals ``correct_hash_key(cast_for_domain(v, d))``
    in type and value, or raises the same exception type."""
    _assert_exact_key(domain, value)


def _is_nan(value):
    return (isinstance(value, float) and math.isnan(value)) or (
        isinstance(value, Decimal) and value.is_nan())


#: Storage refuses NaN, so no stored join key is one.
stored_keys = st.one_of(
    mixed_keys, numeric_keys, string_keys, st.sampled_from(EDGE_KEYS),
).filter(lambda value: not _is_nan(value))


def _matches_under(algorithm, domain, left_keys, right_keys):
    """The match lists of a bug-free *algorithm* join, or the type of the
    exception it raises."""
    join = Join(
        RowsOf("l.k", left_keys),
        RowsOf("r.k", right_keys),
        JoinType.INNER,
        algorithm,
        JoinKeySpec("l.k", "r.k", domain),
        hooks=ExecutionHooks(),
    )
    try:
        return join._find_matches(
            list(join.left.rows()), list(join.right.rows()), TriggerContext())
    except Exception as error:  # e.g. int(Decimal("Infinity")) in DECIMAL
        return type(error)


#: One algorithm per matching routine: hash, scan and merge.
ROUTINE_ALGORITHMS = (
    JoinAlgorithm.HASH, JoinAlgorithm.NESTED_LOOP, JoinAlgorithm.SORT_MERGE,
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(TypeCategory)),
    st.lists(stored_keys, max_size=8),
    st.lists(stored_keys, max_size=8),
)
@example(TypeCategory.DECIMAL, [2**53 + 1], [2**53 + 1, 2**53, 2**53 + 1])
@example(TypeCategory.DECIMAL, [10**400, 1], [1, 10**400])
@example(TypeCategory.FLOAT, [10**400], [1])
def test_matching_routines_agree_under_the_bug_free_key_function(
        domain, left_keys, right_keys):
    """Hash, scan and merge matching return the same match lists (or raise
    the same exception type): a join's routine cannot change its output
    unless a fault is read inside the routine."""
    assert {algorithm.matching for algorithm in ROUTINE_ALGORITHMS} == {
        "hash", "scan", "merge"}
    hashed, scanned, merged = (
        _matches_under(algorithm, domain, left_keys, right_keys)
        for algorithm in ROUTINE_ALGORITHMS
    )
    assert hashed == scanned == merged, (domain, left_keys, right_keys)


def test_merge_matching_orders_keys_exactly():
    # 2**53 and 2**53 + 1 are one double, and 10**400 none at all; DSG's
    # adversarial noise plants the first pair on purpose.
    right = [2**53 + 1, 2**53, 2**53 + 1, 10**400]
    left = [2**53 + 1, 10**400, 2**53]
    assert _matches_under(JoinAlgorithm.SORT_MERGE, TypeCategory.DECIMAL,
                          left, right) == [[0, 2], [3], [1]]


class RecordingHooks(ExecutionHooks):
    """Bug-free hooks that record every flag a join reads."""

    def __init__(self):
        self.read = set()

    def flag(self, effect, trigger):
        self.read.add(effect)
        return False


def test_matching_effect_names_are_the_flags_one_routine_reads_alone():
    """A flag read by some matching routines but not all is one of
    ``MATCHING_EFFECT_NAMES``, and each of those is read by one routine."""
    left_keys = [1, 1, NULL, -0.0, 2]
    right_keys = [1, 1, NULL, 0, 3]
    routine_only = set()
    for join_type in JoinType:
        read = []
        for algorithm in ROUTINE_ALGORITHMS:
            hooks = RecordingHooks()
            Join(RowsOf("l.k", left_keys), RowsOf("r.k", right_keys), join_type,
                 algorithm, JoinKeySpec("l.k", "r.k", TypeCategory.DECIMAL),
                 hooks=hooks).execute()
            read.append(hooks.read)
        routine_only |= set.union(*read) - set.intersection(*read)
    assert routine_only == set(MATCHING_EFFECT_NAMES)
    assert set(MATCHING_EFFECT_NAMES) <= set(EFFECT_NAMES)
