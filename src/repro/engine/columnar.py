"""Columnar reference execution: the logical plan over column vectors.

The row executor interprets one dict-shaped row at a time: every scan builds a
dict per row, every predicate allocates an :class:`~repro.expr.ast.EvalContext`
per row, and uncorrelated IN/EXISTS subqueries re-execute *per outer row*.
PR 6's phase telemetry showed that interpretation overhead dominating the
differential hot path (``execute.reference`` at ~40–65% of worker wall-clock).

:class:`ColumnarExecutor` evaluates the same logical plan over column vectors
(plain Python lists, gathered through numpy object arrays when available):
scans load each column once, expressions evaluate over whole columns with one
dispatch per *node* instead of one per node per row, joins build selection
vectors instead of merged dicts, and each uncorrelated subquery executes
exactly once per query.

Exactness contract: for any generated query the output is **bit-identical** to
the row executor — same column names, same row order, same value objects
(including ``Decimal`` exactness and float accumulation order in SUM/AVG).
Every helper below mirrors a specific piece of the row path
(:mod:`repro.plan.operators`, :mod:`repro.plan.joins`,
:mod:`repro.expr.ast`); comments name the mirrored semantics where they are
not obvious.  The join matcher replicates hash matching under the bug-free
:class:`~repro.plan.physical.ExecutionHooks`; on bug-free hooks all three row
match algorithms (hash / scan / merge) produce identical ascending match
lists, so the emitted rows are algorithm-independent.  ``tests/test_columnar.py``
pins the contract down property-style against randomized generated queries.
"""

from __future__ import annotations

import os
from decimal import Decimal
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import ExecutorBackend
from repro.engine.resultset import ResultSet
from repro.errors import ExecutionError, ExpressionError
from repro.expr.ast import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    EvalContext,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
)
from repro.plan.logical import (
    AggregateFunction,
    AnyQuerySpec,
    CompoundQuerySpec,
    JoinStep,
    JoinType,
    OrderItem,
    QuerySpec,
    SelectItem,
    combine_set_rows,
    unique_output_names,
)
from repro.plan.operators import Descending
from repro.sqlvalue.casts import (
    cast_for_domain,
    comparison_domain,
    to_decimal,
    to_double_lossy,
)
from repro.sqlvalue.comparison import (
    correct_hash_key,
    logical_and,
    logical_not,
    logical_or,
    null_safe_equal,
    sql_compare,
    sql_equal,
    truth_value,
)
from repro.sqlvalue.datatypes import TypeCategory
from repro.sqlvalue.values import NULL, is_null, normalize_row, value_sort_key

#: Below this many gathered rows the list-comprehension path beats building a
#: numpy object array; above it the vectorized take wins.
_NUMPY_MIN_ROWS = 64

#: Uncorrelated subquery -> its (already executed) result rows.
SubqueryRows = Callable[[QuerySpec], List[tuple]]

_EMPTY: Tuple[int, ...] = ()


class _Frame:
    """A batch of rows as named column vectors.

    ``names`` preserves the row executor's key-insertion order (scan columns in
    schema order, join output left-then-right), so row reconstruction and the
    "row keys" text of resolution errors are bit-identical to the dict path.
    """

    __slots__ = ("names", "columns", "nrows")

    def __init__(self, names: List[str], columns: Dict[str, List[Any]],
                 nrows: int) -> None:
        self.names = names
        self.columns = columns
        self.nrows = nrows


class ColumnarExecutor(ExecutorBackend):
    """Vectorized bug-free executor, selectable as ``executor="columnar"``."""

    name = "columnar"

    def __init__(self, use_numpy: Optional[bool] = None) -> None:
        # Resolved once at construction: ``REPRO_DISABLE_NUMPY=1`` forces the
        # pure-Python fallback (the CI optional-deps leg runs both modes).
        if use_numpy is None:
            use_numpy = os.environ.get("REPRO_DISABLE_NUMPY", "") != "1"
        self._np = None
        if use_numpy:
            try:
                import numpy
            except ImportError:  # pragma: no cover - numpy is a package dep
                numpy = None
            self._np = numpy

    # ----------------------------------------------------------- entry point

    def execute(self, engine: Any, query: AnyQuerySpec) -> ResultSet:
        if isinstance(query, CompoundQuerySpec):
            result = self._execute_compound(engine.database, query)
        else:
            result = self._execute_spec(engine.database, query, [])
        engine.queries_executed += 1
        return result

    def _execute_compound(self, database: Any,
                          query: CompoundQuerySpec) -> ResultSet:
        # Arms execute columnar (bit-identical to the row path per the
        # executor contract); the fold itself is the one shared
        # combine_set_rows implementation, so compound output is identical to
        # the row engine's by construction.  CTE wrappers are inlined: the
        # outer pass-through projection returns the body unchanged.
        query.validate()
        arm_results = [self._execute_spec(database, arm, []).rows
                       for arm in query.arms]
        rows = combine_set_rows(arm_results, query.operators)
        if query.limit is not None:
            rows = rows[: query.limit]
        return ResultSet(query.output_columns(), rows)

    def _execute_spec(self, database: Any, query: QuerySpec,
                      subquery_cache: List[Tuple[QuerySpec, List[tuple]]]
                      ) -> ResultSet:
        query.validate()
        if query.limit is not None and query.limit < 0:
            # The row planner raises at plan time, before any scan runs.
            raise ExecutionError("LIMIT must be non-negative")

        def subquery_rows(spec: QuerySpec) -> List[tuple]:
            # Uncorrelated by construction (the planner's subquery executor
            # ignores the outer row), so one execution per distinct subquery
            # node serves every outer row.  Identity keying: QuerySpec is
            # mutable and each IN/EXISTS node holds its own spec object.
            for cached_spec, cached_rows in subquery_cache:
                if cached_spec is spec:
                    return cached_rows
            result = self._execute_spec(database, spec, subquery_cache)
            rows = list(result.rows)
            subquery_cache.append((spec, rows))
            return rows

        schema = database.schema
        alias_to_table = {ref.alias: ref.table for ref in query.table_refs}
        frame = self._scan(database, query.base.table, query.base.alias)
        for step in query.joins:
            frame = self._join(database, schema, frame, step, alias_to_table,
                               subquery_rows)
        if query.where is not None:
            frame = self._filter(frame, query.where, subquery_rows)
        frame = self._project(frame, query.select, query.group_by,
                              query.distinct, subquery_rows)
        if query.order_by:
            frame = self._sort(frame, query.order_by, subquery_rows)
        rows = list(zip(*[frame.columns[name] for name in frame.names]))
        if query.limit is not None:
            rows = rows[: query.limit]
        return ResultSet(frame.names, rows)

    # ---------------------------------------------------------------- gather

    def _gather(self, column: List[Any], indices: Sequence[int]) -> List[Any]:
        """Select ``column[i]`` per index; ``-1`` yields the NULL join pad."""
        np = self._np
        if np is not None and len(indices) >= _NUMPY_MIN_ROWS:
            padded = np.empty(len(column) + 1, dtype=object)
            padded[: len(column)] = column
            padded[len(column)] = NULL
            taken = padded[np.asarray(indices, dtype=np.intp)]
            return taken.tolist()
        return [column[i] if i >= 0 else NULL for i in indices]

    def _take(self, frame: _Frame, indices: Sequence[int]) -> _Frame:
        columns = {name: self._gather(frame.columns[name], indices)
                   for name in frame.names}
        return _Frame(list(frame.names), columns, len(indices))

    def _merge(self, left: _Frame, right: _Frame, left_sel: Sequence[int],
               right_sel: Sequence[int]) -> _Frame:
        # Mirrors merge_rows key order: left columns first, then right.
        names = list(left.names) + list(right.names)
        columns = {name: self._gather(left.columns[name], left_sel)
                   for name in left.names}
        for name in right.names:
            columns[name] = self._gather(right.columns[name], right_sel)
        return _Frame(names, columns, len(left_sel))

    # ------------------------------------------------------------------ scan

    def _scan(self, database: Any, table: str, alias: str) -> _Frame:
        schema = database.table_schema(table)
        stored_rows = database.table(table).rows
        names = [f"{alias}.{name}" for name in schema.column_names]
        columns: Dict[str, List[Any]] = {}
        for name in schema.column_names:
            columns[f"{alias}.{name}"] = [stored[name] for stored in stored_rows]
        return _Frame(names, columns, len(stored_rows))

    # ------------------------------------------------------------------ join

    def _key_domain(self, schema: Any, step: JoinStep,
                    alias_to_table: Dict[str, str]) -> TypeCategory:
        assert step.left_key is not None and step.right_key is not None
        left_table = alias_to_table[step.left_key.table]
        right_table = alias_to_table[step.right_key.table]
        left_dtype = schema.table(left_table).column(step.left_key.column).dtype
        right_dtype = schema.table(right_table).column(step.right_key.column).dtype
        return comparison_domain(left_dtype, right_dtype)

    def _join(self, database: Any, schema: Any, left: _Frame, step: JoinStep,
              alias_to_table: Dict[str, str],
              subquery_rows: SubqueryRows) -> _Frame:
        right = self._scan(database, step.table.table, step.table.alias)
        join_type = step.join_type
        if join_type is JoinType.CROSS:
            left_sel = [i for i in range(left.nrows) for _ in range(right.nrows)]
            right_sel = list(range(right.nrows)) * left.nrows
            return self._merge(left, right, left_sel, right_sel)

        domain = self._key_domain(schema, step, alias_to_table)
        assert step.left_key is not None and step.right_key is not None
        left_key = f"{step.left_key.table}.{step.left_key.column}"
        right_key = f"{step.right_key.table}.{step.right_key.column}"
        matches = self._match(left.columns[left_key], right.columns[right_key],
                              domain)
        if step.extra_condition is not None:
            matches = self._filter_residual(left, right, matches,
                                            step.extra_condition, subquery_rows)

        if join_type is JoinType.SEMI:
            return self._take(left, [i for i, cand in enumerate(matches) if cand])
        if join_type is JoinType.ANTI:
            # NULL-key left rows have no candidates and therefore pass.
            return self._take(left,
                              [i for i, cand in enumerate(matches) if not cand])

        left_sel: List[int] = []
        right_sel: List[int] = []
        if join_type is JoinType.INNER:
            for i, cand in enumerate(matches):
                for j in cand:
                    left_sel.append(i)
                    right_sel.append(j)
        elif join_type is JoinType.LEFT_OUTER:
            for i, cand in enumerate(matches):
                if cand:
                    for j in cand:
                        left_sel.append(i)
                        right_sel.append(j)
                else:
                    left_sel.append(i)
                    right_sel.append(-1)
        elif join_type is JoinType.RIGHT_OUTER:
            matched_right = set()
            for i, cand in enumerate(matches):
                for j in cand:
                    matched_right.add(j)
                    left_sel.append(i)
                    right_sel.append(j)
            for j in range(right.nrows):
                if j not in matched_right:
                    left_sel.append(-1)
                    right_sel.append(j)
        elif join_type is JoinType.FULL_OUTER:
            matched_right = set()
            for i, cand in enumerate(matches):
                if cand:
                    for j in cand:
                        matched_right.add(j)
                        left_sel.append(i)
                        right_sel.append(j)
                else:
                    left_sel.append(i)
                    right_sel.append(-1)
            for j in range(right.nrows):
                if j not in matched_right:
                    left_sel.append(-1)
                    right_sel.append(j)
        else:  # pragma: no cover - JoinType is exhaustive above
            raise ExecutionError(f"unsupported join type {join_type!r}")
        return self._merge(left, right, left_sel, right_sel)

    def _match(self, left_col: List[Any], right_col: List[Any],
               domain: TypeCategory) -> List[Sequence[int]]:
        """Equi-join match lists, ascending by right index per left row.

        Hash matching under the bug-free hooks: the build/probe key is
        ``correct_hash_key(cast_for_domain(value, domain))``, NULL keys never
        match, and bucket order is right-scan order — exactly
        ``Join._matches_by_hash`` with default :class:`ExecutionHooks`.
        """
        table: Dict[Any, List[int]] = {}
        for index, value in enumerate(right_col):
            if is_null(value):
                continue
            table.setdefault(
                correct_hash_key(cast_for_domain(value, domain)), []
            ).append(index)
        matches: List[Sequence[int]] = []
        for value in left_col:
            if is_null(value):
                matches.append(_EMPTY)
                continue
            matches.append(
                table.get(correct_hash_key(cast_for_domain(value, domain)),
                          _EMPTY)
            )
        return matches

    def _filter_residual(self, left: _Frame, right: _Frame,
                         matches: List[Sequence[int]], condition: Expression,
                         subquery_rows: SubqueryRows) -> List[Sequence[int]]:
        pair_left = [i for i, cand in enumerate(matches) for _ in cand]
        if not pair_left:
            return matches
        pair_right = [j for cand in matches for j in cand]
        pair_frame = self._merge(left, right, pair_left, pair_right)
        verdicts = self._eval(condition, pair_frame, subquery_rows)
        filtered: List[Sequence[int]] = []
        cursor = 0
        for cand in matches:
            kept = []
            for j in cand:
                if truth_value(verdicts[cursor]) is True:
                    kept.append(j)
                cursor += 1
            filtered.append(kept)
        return filtered

    # ---------------------------------------------------------------- filter

    def _filter(self, frame: _Frame, predicate: Expression,
                subquery_rows: SubqueryRows) -> _Frame:
        verdicts = self._eval(predicate, frame, subquery_rows)
        keep = [i for i, value in enumerate(verdicts)
                if truth_value(value) is True]
        return self._take(frame, keep)

    # --------------------------------------------------------------- project

    def _project(self, frame: _Frame, items: Sequence[SelectItem],
                 group_by: Sequence[ColumnRef], distinct: bool,
                 subquery_rows: SubqueryRows) -> _Frame:
        if not items:
            raise ExecutionError("projection requires at least one select item")
        names = unique_output_names(items)
        if any(item.aggregate is not None for item in items):
            out_rows = self._aggregate_rows(frame, items, group_by,
                                            subquery_rows)
        else:
            value_lists = [self._eval(item.expression, frame, subquery_rows)
                           for item in items]
            out_rows = []
            if distinct:
                seen = set()
                for values in zip(*value_lists):
                    key = normalize_row(values)
                    if key in seen:
                        continue
                    seen.add(key)
                    out_rows.append(values)
            else:
                out_rows = list(zip(*value_lists))
        columns = {name: [row[position] for row in out_rows]
                   for position, name in enumerate(names)}
        return _Frame(names, columns, len(out_rows))

    def _aggregate_rows(self, frame: _Frame, items: Sequence[SelectItem],
                        group_by: Sequence[ColumnRef],
                        subquery_rows: SubqueryRows) -> List[tuple]:
        group_lists = [self._eval(col, frame, subquery_rows)
                       for col in group_by]
        groups: Dict[tuple, List[int]] = {}
        order: List[tuple] = []
        for position in range(frame.nrows):
            key = normalize_row(tuple(values[position]
                                      for values in group_lists))
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(position)
        if not groups and not group_by:
            groups[()] = []
            order.append(())
        item_lists = [self._eval(item.expression, frame, subquery_rows)
                      for item in items]
        return [
            tuple(self._evaluate_item(item, item_lists[index], groups[key])
                  for index, item in enumerate(items))
            for key in order
        ]

    @staticmethod
    def _evaluate_item(item: SelectItem, values_list: List[Any],
                       members: List[int]) -> Any:
        # Mirrors Project._evaluate_item: DISTINCT input values in first-seen
        # member order, NULL-skipping for aggregates only, and the same
        # numeric accumulation order for SUM/AVG bit-exactness.
        values = []
        seen = set()
        for position in members:
            value = values_list[position]
            if item.aggregate is not None and is_null(value):
                continue
            key = normalize_row((value,))
            if key in seen:
                continue
            seen.add(key)
            values.append(value)
        if item.aggregate is None:
            return values[0] if values else NULL
        if item.aggregate is AggregateFunction.COUNT:
            return len(values)
        if not values:
            return NULL
        if item.aggregate is AggregateFunction.MIN:
            return min(values, key=value_sort_key)
        if item.aggregate is AggregateFunction.MAX:
            return max(values, key=value_sort_key)
        numeric = [v for v in values if isinstance(v, (int, float, Decimal))]
        if not numeric:
            return NULL
        if item.aggregate is AggregateFunction.SUM:
            return sum(numeric)
        return sum(numeric) / len(numeric)

    # ------------------------------------------------------------------ sort

    def _sort(self, frame: _Frame, order_by: Sequence[OrderItem],
              subquery_rows: SubqueryRows) -> _Frame:
        key_lists = []
        for item in order_by:
            values = self._eval(item.expression, frame, subquery_rows)
            if item.descending:
                key_lists.append([Descending(value_sort_key(value)) for value in values])
            else:
                key_lists.append([value_sort_key(value) for value in values])
        # sorted() is stable over ascending positions, matching the row
        # path's stable list.sort over rows materialized in input order.
        permutation = sorted(
            range(frame.nrows),
            key=lambda position: tuple(keys[position] for keys in key_lists),
        )
        return self._take(frame, permutation)

    # ------------------------------------------------------------ expressions

    def _resolve(self, frame: _Frame, table: Optional[str],
                 column: str) -> List[Any]:
        # Mirrors EvalContext.lookup, including the error text.
        if table is not None:
            qualified = f"{table}.{column}"
            if qualified in frame.columns:
                return frame.columns[qualified]
        if column in frame.columns:
            return frame.columns[column]
        suffix = f".{column}"
        found = [name for name in frame.names if name.endswith(suffix)]
        if table is None and len(found) == 1:
            return frame.columns[found[0]]
        raise ExpressionError(
            f"cannot resolve column {table + '.' if table else ''}{column} "
            f"against row keys {sorted(frame.columns)}"
        )

    def _eval(self, expr: Expression, frame: _Frame,
              subquery_rows: SubqueryRows) -> List[Any]:
        """Evaluate *expr* over every row of *frame*, one node dispatch total.

        Returned lists may alias frame columns (ColumnRef) — callers must
        treat them as read-only.
        """
        nrows = frame.nrows
        if isinstance(expr, ColumnRef):
            return self._resolve(frame, expr.table, expr.column)
        if isinstance(expr, Literal):
            return [expr.value] * nrows
        if isinstance(expr, Comparison):
            return self._eval_comparison(expr, frame, subquery_rows)
        if isinstance(expr, IsNull):
            operand = self._eval(expr.operand, frame, subquery_rows)
            if expr.negated:
                return [not is_null(value) for value in operand]
            return [is_null(value) for value in operand]
        if isinstance(expr, Not):
            operand = self._eval(expr.operand, frame, subquery_rows)
            out = []
            for value in operand:
                result = logical_not(truth_value(value))
                out.append(NULL if result is None else result)
            return out
        if isinstance(expr, (And, Or)):
            # Full-evaluate then fold: operand evaluation is pure, and
            # logical_and/or absorb True/False exactly as the short-circuit
            # row path does, so the folded value is identical per row.
            fold = logical_and if isinstance(expr, And) else logical_or
            start = isinstance(expr, And)
            operand_lists = [self._eval(operand, frame, subquery_rows)
                             for operand in expr.operands]
            out = []
            for position in range(nrows):
                result: Optional[bool] = start
                for values in operand_lists:
                    result = fold(result, truth_value(values[position]))
                    if result is (not start):
                        break
                out.append(NULL if result is None else result)
            return out
        if isinstance(expr, Between):
            return self._eval_between(expr, frame, subquery_rows)
        if isinstance(expr, InList):
            return self._eval_in_list(expr, frame, subquery_rows)
        if isinstance(expr, InSubquery):
            return self._eval_in_subquery(expr, frame, subquery_rows)
        if isinstance(expr, ExistsSubquery):
            result = bool(subquery_rows(expr.subquery))
            value = (not result) if expr.negated else result
            return [value] * nrows
        if isinstance(expr, ScalarSubquery):
            # Uncorrelated: one execution, the scalar broadcast to every row
            # (the row path resolves the same cached rows per outer row).
            scalar = ScalarSubquery.resolve_rows(subquery_rows(expr.subquery))
            return [scalar] * nrows
        if isinstance(expr, Arithmetic):
            return self._eval_arithmetic(expr, frame, subquery_rows)
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, frame, subquery_rows)
        # Unknown node type: fall back to row-at-a-time evaluation through
        # the node's own eval(), so extensions stay correct if not fast.
        executor = (lambda spec, _ctx: subquery_rows(spec))
        out = []
        for position in range(nrows):
            row = {name: frame.columns[name][position]
                   for name in frame.names}
            out.append(expr.eval(EvalContext(row, executor)))
        return out

    def _eval_comparison(self, expr: Comparison, frame: _Frame,
                         subquery_rows: SubqueryRows) -> List[Any]:
        left = self._eval(expr.left, frame, subquery_rows)
        right = self._eval(expr.right, frame, subquery_rows)
        if expr.op == "<=>":
            return [null_safe_equal(lv, rv) for lv, rv in zip(left, right)]
        verdicts: Dict[str, Callable[[int], bool]] = {
            "=": lambda cmp: cmp == 0,
            "<>": lambda cmp: cmp != 0,
            "!=": lambda cmp: cmp != 0,
            "<": lambda cmp: cmp < 0,
            "<=": lambda cmp: cmp <= 0,
            ">": lambda cmp: cmp > 0,
            ">=": lambda cmp: cmp >= 0,
        }
        verdict = verdicts[expr.op]
        out = []
        for lv, rv in zip(left, right):
            cmp = sql_compare(lv, rv)
            out.append(NULL if cmp is None else verdict(cmp))
        return out

    def _eval_between(self, expr: Between, frame: _Frame,
                      subquery_rows: SubqueryRows) -> List[Any]:
        operand = self._eval(expr.operand, frame, subquery_rows)
        low = self._eval(expr.low, frame, subquery_rows)
        high = self._eval(expr.high, frame, subquery_rows)
        out = []
        for value, lo, hi in zip(operand, low, high):
            lower = sql_compare(value, lo)
            upper = sql_compare(value, hi)
            if lower is None or upper is None:
                out.append(NULL)
                continue
            result = lower >= 0 and upper <= 0
            out.append((not result) if expr.negated else result)
        return out

    def _eval_in_list(self, expr: InList, frame: _Frame,
                      subquery_rows: SubqueryRows) -> List[Any]:
        operand = self._eval(expr.operand, frame, subquery_rows)
        item_lists = [self._eval(item, frame, subquery_rows)
                      for item in expr.items]
        out = []
        for position, value in enumerate(operand):
            if is_null(value):
                out.append(NULL)
                continue
            out.append(self._membership(
                value, [values[position] for values in item_lists],
                expr.negated,
            ))
        return out

    def _eval_in_subquery(self, expr: InSubquery, frame: _Frame,
                          subquery_rows: SubqueryRows) -> List[Any]:
        operand = self._eval(expr.operand, frame, subquery_rows)
        rows = subquery_rows(expr.subquery)
        candidates = [row[0] if isinstance(row, (tuple, list)) else row
                      for row in rows]
        out = []
        for value in operand:
            if is_null(value):
                if not rows:
                    out.append(True if expr.negated else False)
                else:
                    out.append(NULL)
                continue
            out.append(self._membership(value, candidates, expr.negated))
        return out

    @staticmethod
    def _membership(value: Any, candidates: Sequence[Any],
                    negated: bool) -> Any:
        # The shared IN scan: first sql_equal=True wins, surviving UNKNOWNs
        # make the whole predicate UNKNOWN (ast.InList / ast.InSubquery).
        saw_unknown = False
        for candidate in candidates:
            eq = sql_equal(value, candidate)
            if eq is True:
                return False if negated else True
            if eq is None:
                saw_unknown = True
        if saw_unknown:
            return NULL
        return True if negated else False

    def _eval_arithmetic(self, expr: Arithmetic, frame: _Frame,
                         subquery_rows: SubqueryRows) -> List[Any]:
        left = self._eval(expr.left, frame, subquery_rows)
        right = self._eval(expr.right, frame, subquery_rows)
        op = expr.op
        out = []
        for lv, rv in zip(left, right):
            if is_null(lv) or is_null(rv):
                out.append(NULL)
                continue
            if isinstance(lv, str) or isinstance(rv, str):
                lv = to_double_lossy(lv)
                rv = to_double_lossy(rv)
            if op == "+":
                out.append(lv + rv)
            elif op == "-":
                out.append(lv - rv)
            elif op == "*":
                out.append(lv * rv)
            elif rv == 0:
                out.append(NULL)
            elif isinstance(lv, float) or isinstance(rv, float):
                out.append(lv / rv)
            else:
                out.append(to_decimal(lv) / to_decimal(rv))
        return out

    def _eval_function(self, expr: FunctionCall, frame: _Frame,
                       subquery_rows: SubqueryRows) -> List[Any]:
        name = expr.name.upper()
        arg_lists = [self._eval(arg, frame, subquery_rows)
                     for arg in expr.args]
        out = []
        if name in ("COALESCE", "IFNULL"):
            for position in range(frame.nrows):
                chosen: Any = NULL
                for values in arg_lists:
                    if not is_null(values[position]):
                        chosen = values[position]
                        break
                out.append(chosen)
            return out
        for position in range(frame.nrows):
            if not arg_lists or is_null(arg_lists[0][position]):
                out.append(NULL)
                continue
            value = arg_lists[0][position]
            if name == "ABS":
                out.append(abs(value)
                           if isinstance(value, (int, float, Decimal))
                           else value)
            elif name == "LENGTH":
                out.append(len(str(value)))
            elif name == "UPPER":
                out.append(str(value).upper())
            elif name == "LOWER":
                out.append(str(value).lower())
            else:  # pragma: no cover - FunctionCall validates names
                raise ExpressionError(f"unsupported function {expr.name!r}")
        return out
