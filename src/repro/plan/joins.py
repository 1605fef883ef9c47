"""The join operator: seven physical algorithms x seven logical join types.

The operator always materializes its right (inner) input, builds an algorithm
specific lookup structure, finds the matches of every left row, and then emits
output rows according to the logical join type.  Every decision point that a
seeded logic bug can corrupt goes through :class:`~repro.plan.physical.ExecutionHooks`:

* ``join_key`` — key normalization before hashing/merging (e.g. the ``0`` vs ``-0``
  hash-join bug of Figure 1(a), the ``varchar``→``double`` semi-join cast of
  Figure 1(b));
* ``null_pad_value`` — padding of the non-preserved side of outer joins (the
  MariaDB join-buffer bugs that turn NULL into an empty string);
* ``flag(effect, trigger)`` — named boolean seams such as
  ``"left_outer_join_as_inner"`` or ``"antijoin_drop_null_key_rows"``.

The effect names understood by this module are listed in ``EFFECT_NAMES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.expr.ast import EvalContext, Expression
from repro.plan.logical import JoinType
from repro.plan.physical import (
    ExecRow,
    ExecutionHooks,
    JoinAlgorithm,
    PhysicalOperator,
    TriggerContext,
    merge_rows,
    null_row,
)
from repro.sqlvalue.comparison import sql_compare, truth_value
from repro.sqlvalue.datatypes import TypeCategory
from repro.sqlvalue.values import is_null, value_sort_key

EFFECT_NAMES = (
    "left_outer_join_as_inner",
    "right_outer_join_as_inner",
    "outer_join_drop_matched_rows",
    "semijoin_ignore_join_key",
    "semijoin_drop_null_probe",
    "antijoin_drop_null_key_rows",
    "antijoin_unknown_as_match",
    "merge_join_drop_negative_zero",
    "merge_join_drop_last_duplicate",
    "merge_join_empty_result",
    "hash_join_null_key_matches_zero",
    "hash_join_drop_duplicate_build_keys",
    "residual_condition_skipped",
    "inner_join_emit_null_padding",
    "left_outer_emit_spurious_null_row",
)
"""Boolean fault seams consulted by the join operator."""


def _plain_kind(value: Any) -> Optional[type]:
    """The bucketable kind of a normalized join key, or None.

    ``str`` keys form one kind and ``int`` / non-NaN ``float`` keys another.
    Within a kind, ``==`` and ``hash`` agree with ``sql_compare(...) == 0``.
    """
    kind = type(value)
    if kind is str:
        return str
    if kind is int or (kind is float and value == value):
        return float
    return None


@dataclass(frozen=True)
class JoinKeySpec:
    """Resolved equi-join key information for one join step."""

    left_column: str
    right_column: str
    domain: TypeCategory


class Join(PhysicalOperator):
    """Physical join of an accumulated left input with a scanned right input."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        join_type: JoinType,
        algorithm: JoinAlgorithm,
        key: Optional[JoinKeySpec],
        hooks: Optional[ExecutionHooks] = None,
        extra_condition: Optional[Expression] = None,
        trigger: Optional[TriggerContext] = None,
        subquery_executor=None,
    ) -> None:
        if join_type is not JoinType.CROSS and key is None:
            raise ExecutionError(f"{join_type.value} join requires an equi-join key")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.algorithm = algorithm
        self.key = key
        self.hooks = hooks or ExecutionHooks()
        self.extra_condition = extra_condition
        self._base_trigger = trigger or TriggerContext()
        self.subquery_executor = subquery_executor

    # ------------------------------------------------------------------ plumbing

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def output_columns(self) -> List[str]:
        columns = list(self.left.output_columns())
        if self.join_type.exposes_right_columns:
            columns.extend(self.right.output_columns())
        return columns

    def describe(self) -> str:
        key = "" if self.key is None else f" on {self.key.left_column}={self.key.right_column}"
        return f"Join[{self.join_type.value}/{self.algorithm.value}]{key}"

    def _trigger(self, has_null_keys: bool) -> TriggerContext:
        base = self._base_trigger
        return TriggerContext(
            algorithm=self.algorithm,
            join_type=self.join_type,
            key_domain=None if self.key is None else self.key.domain,
            materialization=base.materialization,
            semijoin_transform=base.semijoin_transform,
            join_cache_level=base.join_cache_level,
            derived_from_subquery=base.derived_from_subquery,
            has_null_keys=has_null_keys,
            converted_from=base.converted_from,
            disabled_switches=base.disabled_switches,
        )

    # ------------------------------------------------------------------ matching

    def _matches_by_hash(
        self, left_rows: List[ExecRow], right_rows: List[ExecRow], trigger: TriggerContext
    ) -> List[List[int]]:
        """Hash-structure based matching (hash / BNLH / BKA / index NL joins)."""
        assert self.key is not None
        table: Dict[Any, List[int]] = {}
        for index, row in enumerate(right_rows):
            value = row[self.key.right_column]
            if is_null(value):
                continue
            key = self.hooks.join_key(value, self.key.domain, trigger)
            bucket = table.setdefault(key, [])
            if bucket and self.hooks.flag("hash_join_drop_duplicate_build_keys", trigger):
                continue
            bucket.append(index)
        null_matches_zero = self.hooks.flag("hash_join_null_key_matches_zero", trigger)
        matches: List[List[int]] = []
        for row in left_rows:
            value = row[self.key.left_column]
            if is_null(value):
                if null_matches_zero:
                    key = self.hooks.join_key(0, self.key.domain, trigger)
                    matches.append(list(table.get(key, ())))
                else:
                    matches.append([])
                continue
            key = self.hooks.join_key(value, self.key.domain, trigger)
            matches.append(list(table.get(key, ())))
        return matches

    def _matches_by_scan(
        self, left_rows: List[ExecRow], right_rows: List[ExecRow], trigger: TriggerContext
    ) -> List[List[int]]:
        """Value-comparison matching (plain / block nested loop joins).

        Keys still pass through the ``join_key`` seam so that plan-independent
        conversion bugs (e.g. the cached-constant bug) corrupt every algorithm,
        while hash-specific triggers simply do not match here.

        When every non-NULL right key is of one plain kind (see
        :func:`_plain_kind`), a probe of that same kind is looked up in buckets
        of equal keys: for those kinds Python ``==`` and ``hash`` agree exactly
        with ``sql_compare(...) == 0``.  Any other probe compares against every
        right key, so mixed kinds, ``Decimal``, ``bool`` and NaN keep the exact
        semantics.  Either way a match list is in ascending right-row order.
        """
        assert self.key is not None
        domain = self.key.domain
        candidates: List[Tuple[int, Any]] = []
        for index, row in enumerate(right_rows):
            raw = row[self.key.right_column]
            if is_null(raw):
                continue
            candidate = self.hooks.join_key(raw, domain, trigger)
            if not is_null(candidate):
                candidates.append((index, candidate))
        kinds = {_plain_kind(candidate) for _, candidate in candidates}
        bucket_kind = kinds.pop() if len(kinds) == 1 else None
        buckets: Dict[Any, List[int]] = {}
        if bucket_kind is not None:
            for index, candidate in candidates:
                buckets.setdefault(candidate, []).append(index)
        matches: List[List[int]] = []
        for row in left_rows:
            raw = row[self.key.left_column]
            if is_null(raw):
                matches.append([])
                continue
            value = self.hooks.join_key(raw, domain, trigger)
            if bucket_kind is not None and _plain_kind(value) is bucket_kind:
                matches.append(list(buckets.get(value, ())))
            else:
                matches.append([
                    index
                    for index, candidate in candidates
                    if sql_compare(value, candidate) == 0
                ])
        return matches

    def _matches_by_merge(
        self, left_rows: List[ExecRow], right_rows: List[ExecRow], trigger: TriggerContext
    ) -> List[List[int]]:
        """Sort-merge matching, with merge-join specific fault seams."""
        assert self.key is not None
        domain = self.key.domain
        drop_neg_zero = self.hooks.flag("merge_join_drop_negative_zero", trigger)
        drop_last_dup = self.hooks.flag("merge_join_drop_last_duplicate", trigger)

        def sort_entries(rows: List[ExecRow], column: str) -> List[Tuple[Any, int]]:
            entries = []
            for index, row in enumerate(rows):
                raw = row[column]
                if is_null(raw):
                    continue
                value = self.hooks.join_key(raw, domain, trigger)
                if drop_neg_zero and isinstance(value, float) and value == 0.0 and (
                    str(raw).startswith("-")
                ):
                    continue
                entries.append((value, index))
            entries.sort(key=lambda item: value_sort_key(item[0]))
            return entries

        left_entries = sort_entries(left_rows, self.key.left_column)
        right_entries = sort_entries(right_rows, self.key.right_column)
        matches: List[List[int]] = [[] for _ in left_rows]
        li = ri = 0
        while li < len(left_entries) and ri < len(right_entries):
            lval, lidx = left_entries[li]
            rval, ridx = right_entries[ri]
            cmp = sql_compare(lval, rval)
            if cmp == 0:
                group_end = ri
                while group_end < len(right_entries) and sql_compare(
                    lval, right_entries[group_end][0]
                ) == 0:
                    group_end += 1
                group = [right_entries[k][1] for k in range(ri, group_end)]
                if drop_last_dup and len(group) > 1:
                    group = group[:-1]
                matches[lidx].extend(group)
                li += 1
            elif cmp < 0:
                li += 1
            else:
                ri += 1
        return matches

    def _find_matches(
        self, left_rows: List[ExecRow], right_rows: List[ExecRow], trigger: TriggerContext
    ) -> List[List[int]]:
        if self.algorithm is JoinAlgorithm.SORT_MERGE:
            raw = self._matches_by_merge(left_rows, right_rows, trigger)
        elif self.algorithm.uses_hash_table:
            raw = self._matches_by_hash(left_rows, right_rows, trigger)
        else:
            raw = self._matches_by_scan(left_rows, right_rows, trigger)
        if self.extra_condition is None:
            return raw
        # The residual seam is consulted once, at the first candidate pair, so
        # a join without candidates never fires it.
        if any(raw) and self.hooks.flag("residual_condition_skipped", trigger):
            return raw
        condition = self.extra_condition
        filtered: List[List[int]] = []
        for left_index, candidates in enumerate(raw):
            kept = []
            for right_index in candidates:
                merged = merge_rows(left_rows[left_index], right_rows[right_index])
                ctx = EvalContext(merged, self.subquery_executor)
                if truth_value(condition.eval(ctx)) is True:
                    kept.append(right_index)
            filtered.append(kept)
        return filtered

    # ------------------------------------------------------------------ emission

    def rows(self) -> Iterator[ExecRow]:
        left_rows = list(self.left.rows())
        right_rows = list(self.right.rows())
        has_null_keys = False
        if self.key is not None:
            has_null_keys = any(
                is_null(row[self.key.left_column]) for row in left_rows
            ) or any(is_null(row[self.key.right_column]) for row in right_rows)
        trigger = self._trigger(has_null_keys)

        if self.join_type is JoinType.CROSS:
            output = [
                merge_rows(left, right) for left in left_rows for right in right_rows
            ]
            yield from self.hooks.post_rows(output, trigger)
            return

        if self.hooks.flag("merge_join_empty_result", trigger):
            return

        matches = self._find_matches(left_rows, right_rows, trigger)
        emitter = {
            JoinType.INNER: self._emit_inner,
            JoinType.LEFT_OUTER: self._emit_left_outer,
            JoinType.RIGHT_OUTER: self._emit_right_outer,
            JoinType.FULL_OUTER: self._emit_full_outer,
            JoinType.SEMI: self._emit_semi,
            JoinType.ANTI: self._emit_anti,
        }[self.join_type]
        output = emitter(left_rows, right_rows, matches, trigger)
        yield from self.hooks.post_rows(output, trigger)

    def _emit_inner(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        emit_padding = self.hooks.flag("inner_join_emit_null_padding", trigger)
        right_columns = self.right.output_columns()
        for left_index, candidates in enumerate(matches):
            for right_index in candidates:
                output.append(merge_rows(left_rows[left_index], right_rows[right_index]))
            if not candidates and emit_padding:
                output.append(
                    merge_rows(left_rows[left_index],
                               null_row(right_columns, self.hooks, trigger))
                )
        return output

    def _emit_left_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        right_columns = self.right.output_columns()
        as_inner = self.hooks.flag("left_outer_join_as_inner", trigger)
        drop_matched = self.hooks.flag("outer_join_drop_matched_rows", trigger)
        spurious_null = self.hooks.flag("left_outer_emit_spurious_null_row", trigger)
        for left_index, candidates in enumerate(matches):
            if candidates:
                if not drop_matched:
                    for right_index in candidates:
                        output.append(
                            merge_rows(left_rows[left_index], right_rows[right_index])
                        )
                if spurious_null:
                    output.append(
                        merge_rows(left_rows[left_index],
                                   null_row(right_columns, self.hooks, trigger))
                    )
            elif not as_inner:
                output.append(
                    merge_rows(left_rows[left_index],
                               null_row(right_columns, self.hooks, trigger))
                )
        return output

    def _emit_right_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        left_columns = self.left.output_columns()
        as_inner = self.hooks.flag("right_outer_join_as_inner", trigger)
        matched_right = set()
        for left_index, candidates in enumerate(matches):
            for right_index in candidates:
                matched_right.add(right_index)
                output.append(merge_rows(left_rows[left_index], right_rows[right_index]))
        if not as_inner:
            for right_index, right in enumerate(right_rows):
                if right_index not in matched_right:
                    output.append(
                        merge_rows(null_row(left_columns, self.hooks, trigger), right)
                    )
        return output

    def _emit_full_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        left_columns = self.left.output_columns()
        right_columns = self.right.output_columns()
        matched_right = set()
        for left_index, candidates in enumerate(matches):
            if candidates:
                for right_index in candidates:
                    matched_right.add(right_index)
                    output.append(
                        merge_rows(left_rows[left_index], right_rows[right_index])
                    )
            else:
                output.append(
                    merge_rows(left_rows[left_index],
                               null_row(right_columns, self.hooks, trigger))
                )
        for right_index, right in enumerate(right_rows):
            if right_index not in matched_right:
                output.append(
                    merge_rows(null_row(left_columns, self.hooks, trigger), right)
                )
        return output

    def _emit_semi(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        ignore_key = self.hooks.flag("semijoin_ignore_join_key", trigger)
        drop_null_probe = self.hooks.flag("semijoin_drop_null_probe", trigger)
        for left_index, candidates in enumerate(matches):
            left_value = None
            if self.key is not None:
                left_value = left_rows[left_index][self.key.left_column]
            if ignore_key and right_rows:
                if not (drop_null_probe and is_null(left_value)):
                    output.append(dict(left_rows[left_index]))
                continue
            if candidates:
                output.append(dict(left_rows[left_index]))
        return output

    def _emit_anti(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        drop_null = self.hooks.flag("antijoin_drop_null_key_rows", trigger)
        unknown_as_match = self.hooks.flag("antijoin_unknown_as_match", trigger)
        for left_index, candidates in enumerate(matches):
            left_value = None
            if self.key is not None:
                left_value = left_rows[left_index][self.key.left_column]
            if candidates:
                continue
            if is_null(left_value):
                if drop_null or unknown_as_match:
                    continue
            output.append(dict(left_rows[left_index]))
        return output
