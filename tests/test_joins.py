"""Join operator semantics: every algorithm, every join type, NULL handling."""

import pytest

from repro.expr import Comparison, column, lit
from repro.plan import (
    ExecutionHooks,
    Join,
    JoinAlgorithm,
    JoinKeySpec,
    JoinType,
    TableScan,
)
from repro.sqlvalue import NULL, TypeCategory
from repro.sqlvalue.values import normalize_row, row_sort_key

ALGORITHMS = list(JoinAlgorithm)


def named(operator):
    """The operator's tuple rows, each keyed by its output column names."""
    columns = operator.output_columns()
    return [dict(zip(columns, row)) for row in operator.execute()]


def run_join(db, join_type, algorithm, extra_condition=None):
    left = TableScan(db, "orders", "o")
    right = TableScan(db, "users", "u")
    key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
    join = Join(left, right, join_type, algorithm, key,
                hooks=ExecutionHooks(), extra_condition=extra_condition)
    return named(join)


def projected(rows, *columns):
    return sorted(
        (normalize_row(tuple(row[c] for c in columns)) for row in rows),
        key=row_sort_key,
    )


class TestInnerJoin:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_inner_join_matches(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.INNER, algorithm)
        # 6 orders rows have a matching user; the NULL-key row never matches.
        assert len(rows) == 6
        assert all(row["u.userName"] is not NULL for row in rows)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_agree(self, orders_db, algorithm):
        baseline = projected(
            run_join(orders_db, JoinType.INNER, JoinAlgorithm.NESTED_LOOP),
            "o.orderId", "u.userName",
        )
        assert projected(run_join(orders_db, JoinType.INNER, algorithm),
                         "o.orderId", "u.userName") == baseline

    def test_residual_condition(self, orders_db):
        residual = Comparison("=", column("u", "userName"), lit("Tom"))
        rows = run_join(orders_db, JoinType.INNER, JoinAlgorithm.HASH,
                        extra_condition=residual)
        assert {row["u.userName"] for row in rows} == {"Tom"}


class TestOuterJoins:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_left_outer_pads_unmatched(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.LEFT_OUTER, algorithm)
        assert len(rows) == 7
        padded = [row for row in rows if row["u.userName"] is NULL]
        assert len(padded) == 1  # only the NULL-key order

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_right_outer_preserves_right(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.RIGHT_OUTER, algorithm)
        users = {row["u.userId"] for row in rows}
        assert users == {"str1", "str2", "str3"}
        assert len(rows) == 6  # every user matches at least one order

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_full_outer_union(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.FULL_OUTER, algorithm)
        # 6 matches + 1 unmatched order; every user is matched.
        assert len(rows) == 7

    def test_right_outer_pads_left_columns(self, orders_db):
        # Remove the orders of str3 so that user becomes unmatched.
        db = orders_db.copy()
        db.table("orders").rows[:] = [
            row for row in db.table("orders").rows if row["userId"] != "str3"
        ]
        left = TableScan(db, "orders", "o")
        right = TableScan(db, "users", "u")
        key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
        rows = named(Join(left, right, JoinType.RIGHT_OUTER, JoinAlgorithm.HASH, key))
        padded = [row for row in rows if row["o.orderId"] is NULL]
        assert len(padded) == 1
        assert padded[0]["u.userId"] == "str3"


class TestSemiAntiJoins:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_semi_join_returns_left_rows_once(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.SEMI, algorithm)
        assert len(rows) == 6
        assert all(key.startswith("o.") for key in rows[0])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_anti_join_keeps_unmatched_and_null_keys(self, orders_db, algorithm):
        rows = run_join(orders_db, JoinType.ANTI, algorithm)
        # Only the NULL-userId order has no match (all user ids exist).
        assert len(rows) == 1
        assert rows[0]["o.userId"] is NULL

    def test_anti_join_with_missing_parent(self, orders_db):
        db = orders_db.copy()
        db.table("users").rows[:] = [
            row for row in db.table("users").rows if row["userId"] != "str3"
        ]
        rows_by_algo = set()
        for algorithm in ALGORITHMS:
            left = TableScan(db, "orders", "o")
            right = TableScan(db, "users", "u")
            key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
            rows = named(Join(left, right, JoinType.ANTI, algorithm, key))
            rows_by_algo.add(tuple(projected(rows, "o.orderId", "o.userId")))
            assert len(rows) == 2  # the str3 order plus the NULL-key order
        assert len(rows_by_algo) == 1


class TestCrossJoin:
    def test_cross_join_cardinality(self, orders_db):
        left = TableScan(orders_db, "orders", "o")
        right = TableScan(orders_db, "users", "u")
        rows = Join(left, right, JoinType.CROSS, JoinAlgorithm.NESTED_LOOP, None).execute()
        assert len(rows) == 7 * 3

    def test_cross_join_requires_no_key_but_equi_join_does(self, orders_db):
        from repro.errors import ExecutionError

        left = TableScan(orders_db, "orders", "o")
        right = TableScan(orders_db, "users", "u")
        with pytest.raises(ExecutionError):
            Join(left, right, JoinType.INNER, JoinAlgorithm.HASH, None)


class TestOutputColumns:
    def test_semi_join_hides_right_columns(self, orders_db):
        left = TableScan(orders_db, "orders", "o")
        right = TableScan(orders_db, "users", "u")
        key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
        join = Join(left, right, JoinType.SEMI, JoinAlgorithm.HASH, key)
        assert all(name.startswith("o.") for name in join.output_columns())

    def test_inner_join_exposes_both_sides(self, orders_db):
        left = TableScan(orders_db, "orders", "o")
        right = TableScan(orders_db, "users", "u")
        key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
        join = Join(left, right, JoinType.INNER, JoinAlgorithm.HASH, key)
        names = join.output_columns()
        assert any(name.startswith("o.") for name in names)
        assert any(name.startswith("u.") for name in names)

    @pytest.mark.parametrize("join_type", [t for t in JoinType if t is not JoinType.CROSS])
    def test_rows_are_tuples_laid_out_as_output_columns(self, orders_db, join_type):
        left_rows = set(TableScan(orders_db, "orders", "o").execute())
        right_rows = set(TableScan(orders_db, "users", "u").execute())
        key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
        join = Join(TableScan(orders_db, "orders", "o"),
                    TableScan(orders_db, "users", "u"), join_type,
                    JoinAlgorithm.HASH, key)
        width = len(join.output_columns())
        for row in join.execute():
            assert type(row) is tuple and len(row) == width
            # SEMI and ANTI emit the left tuple itself; the others left + right.
            assert row[:4] in left_rows or row[:4] == (NULL,) * 4
            if join_type.exposes_right_columns:
                assert row[4:] in right_rows or row[4:] == (NULL,) * 3

    def test_describe_mentions_algorithm(self, orders_db):
        left = TableScan(orders_db, "orders", "o")
        right = TableScan(orders_db, "users", "u")
        key = JoinKeySpec("o.userId", "u.userId", TypeCategory.STRING)
        join = Join(left, right, JoinType.INNER, JoinAlgorithm.SORT_MERGE, key)
        assert "sort_merge" in join.describe()
