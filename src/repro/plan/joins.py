"""The join operator: seven physical algorithms x seven logical join types.

The operator always materializes its right (inner) input, builds an algorithm
specific lookup structure, finds the matches of every left row, and then emits
output rows according to the logical join type.  Rows are tuples: an output row
is ``left + right`` (SEMI and ANTI emit the left tuple itself), and the key
slots and the residual condition are resolved when the operator is built.
Every decision point that a seeded logic bug can corrupt goes through
:class:`~repro.plan.physical.ExecutionHooks`, resolved once per execution:

* ``key_function(domain, trigger)`` — the key normalization applied to every
  non-NULL key before hashing, scanning or merging (e.g. the ``0`` vs ``-0``
  hash-join bug of Figure 1(a), the ``varchar``→``double`` semi-join cast of
  Figure 1(b));
* ``null_pad_value`` — padding of the non-preserved side of outer joins (the
  MariaDB join-buffer bugs that turn NULL into an empty string), consulted
  when the first padded row is built;
* ``flag(effect, trigger)`` — named boolean seams such as
  ``"left_outer_join_as_inner"`` or ``"antijoin_drop_null_key_rows"``;
* ``post_rows`` — the join's full output.

The effect names understood by this module are listed in ``EFFECT_NAMES``;
those read inside a matching routine, in ``MATCHING_EFFECT_NAMES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.expr.ast import Expression, is_true
from repro.plan.logical import JoinType
from repro.plan.operators import PLAIN_COMPILER, Compiler
from repro.plan.physical import (
    ExecRow,
    ExecutionHooks,
    JoinAlgorithm,
    KeyFunction,
    PhysicalOperator,
    TriggerContext,
)
from repro.sqlvalue.comparison import plain_kind, sql_compare
from repro.sqlvalue.datatypes import TypeCategory
from repro.sqlvalue.values import NULL, is_null, value_sort_key

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

MATCHING_EFFECT_NAMES = (
    "merge_join_drop_negative_zero",
    "merge_join_drop_last_duplicate",
    "hash_join_null_key_matches_zero",
    "hash_join_drop_duplicate_build_keys",
)
"""The seams of ``EFFECT_NAMES`` read inside one matching routine.

Every other seam is read outside the routines, the same way whichever runs,
and under the bug-free key function the routines return the same match
lists.  So only a fault at one of these seams, or at the key function, can
tell the routines apart.
"""


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
        compiler: Compiler = PLAIN_COMPILER,
    ) -> None:
        if join_type.keyed and key is None:
            raise ExecutionError(f"{join_type.value} join requires an equi-join key")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.algorithm = algorithm
        self.key = key
        self.hooks = hooks or ExecutionHooks()
        self.extra_condition = extra_condition
        self._base_trigger = trigger or TriggerContext()
        left_columns = left.output_columns()
        right_columns = right.output_columns()
        self._columns = left_columns + (
            right_columns if join_type.exposes_right_columns else []
        )
        self._left_slot = self._right_slot = 0
        if key is not None:
            self._left_slot = _slot_of(left_columns, key.left_column)
            self._right_slot = _slot_of(right_columns, key.right_column)
        self._condition = None
        if extra_condition is not None:
            self._condition = compiler.expression(
                extra_condition, left_columns + right_columns
            )

    # ------------------------------------------------------------------ plumbing

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def output_columns(self) -> List[str]:
        return list(self._columns)

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
            disabled_switches=base.disabled_switches,
        )

    def _padding(self, side: PhysicalOperator, trigger: TriggerContext) -> ExecRow:
        """The padding row for *side*; built only when a padded row is emitted."""
        return tuple(
            self.hooks.null_pad_value(column, trigger)
            for column in side.output_columns()
        )

    # ------------------------------------------------------------------ matching

    def _matches_by_hash(
        self, left_keys: List[Any], right_keys: List[Any],
        key_of: KeyFunction, trigger: TriggerContext,
    ) -> List[List[int]]:
        """Hash-structure based matching (hash / BNLH / BKA / index NL joins)."""
        table: Dict[Any, List[int]] = {}
        drop_duplicates: Optional[bool] = None
        for index, value in enumerate(right_keys):
            if value is NULL or value is None:
                continue
            key = key_of(value)
            bucket = table.get(key)
            if bucket is None:
                table[key] = [index]
                continue
            # The seam is consulted at the first duplicate build key.
            if drop_duplicates is None:
                drop_duplicates = self.hooks.flag(
                    "hash_join_drop_duplicate_build_keys", trigger
                )
            if not drop_duplicates:
                bucket.append(index)
        null_matches_zero = self.hooks.flag("hash_join_null_key_matches_zero", trigger)
        null_matches: Optional[List[int]] = None
        matches: List[List[int]] = []
        for value in left_keys:
            if value is NULL or value is None:
                if not null_matches_zero:
                    matches.append([])
                    continue
                if null_matches is None:
                    null_matches = table.get(key_of(0), [])
                matches.append(null_matches)
                continue
            matches.append(table.get(key_of(value), []))
        return matches

    @staticmethod
    def _matches_by_scan(
        left_keys: List[Any], right_keys: List[Any], key_of: KeyFunction,
    ) -> List[List[int]]:
        """Value-comparison matching (plain / block nested loop joins).

        Keys still go through the key function so that plan-independent
        conversion bugs (e.g. the cached-constant bug) corrupt every algorithm,
        while hash-specific triggers simply do not match here.

        When every non-NULL right key is of one plain kind (see
        :func:`~repro.sqlvalue.comparison.plain_kind`), a probe of that same
        kind is looked up in buckets of equal keys: for those kinds Python
        ``==`` and ``hash`` agree exactly with ``sql_compare(...) == 0``.  Any
        other probe compares against every right key, so mixed kinds,
        ``Decimal``, ``bool`` and NaN keep the exact semantics.  Either way a
        match list is in ascending right-row order.
        """
        candidates: List[Tuple[int, Any]] = []
        for index, raw in enumerate(right_keys):
            if raw is NULL or raw is None:
                continue
            candidate = key_of(raw)
            if not is_null(candidate):
                candidates.append((index, candidate))
        kinds = {plain_kind(candidate) for _, candidate in candidates}
        bucket_kind = kinds.pop() if len(kinds) == 1 else None
        buckets: Dict[Any, List[int]] = {}
        if bucket_kind is not None:
            for index, candidate in candidates:
                buckets.setdefault(candidate, []).append(index)
        matches: List[List[int]] = []
        for raw in left_keys:
            if raw is NULL or raw is None:
                matches.append([])
                continue
            value = key_of(raw)
            if bucket_kind is not None and plain_kind(value) is bucket_kind:
                matches.append(buckets.get(value, []))
            else:
                matches.append([
                    index
                    for index, candidate in candidates
                    if sql_compare(value, candidate) == 0
                ])
        return matches

    def _matches_by_merge(
        self, left_keys: List[Any], right_keys: List[Any],
        key_of: KeyFunction, trigger: TriggerContext,
    ) -> List[List[int]]:
        """Sort-merge matching, with merge-join specific fault seams."""
        drop_neg_zero = self.hooks.flag("merge_join_drop_negative_zero", trigger)
        drop_last_dup = self.hooks.flag("merge_join_drop_last_duplicate", trigger)

        def sort_entries(keys: List[Any]) -> List[Tuple[Any, int]]:
            entries = []
            for index, raw in enumerate(keys):
                if raw is NULL or raw is None:
                    continue
                value = key_of(raw)
                if drop_neg_zero and isinstance(value, float) and value == 0.0 and (
                    str(raw).startswith("-")
                ):
                    continue
                entries.append((value, index))
            entries.sort(key=lambda item: value_sort_key(item[0]))
            return entries

        left_entries = sort_entries(left_keys)
        right_entries = sort_entries(right_keys)
        matches: List[List[int]] = [[] for _ in left_keys]
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
        self, left_rows: Sequence[ExecRow], right_rows: Sequence[ExecRow],
        trigger: TriggerContext,
    ) -> List[List[int]]:
        """For every left row, the ascending indices of its matching right rows."""
        assert self.key is not None
        left_slot = self._left_slot
        right_slot = self._right_slot
        left_keys = [row[left_slot] for row in left_rows]
        right_keys = [row[right_slot] for row in right_rows]
        key_of = self.hooks.key_function(self.key.domain, trigger)
        matching = self.algorithm.matching
        if matching == "merge":
            raw = self._matches_by_merge(left_keys, right_keys, key_of, trigger)
        elif matching == "hash":
            raw = self._matches_by_hash(left_keys, right_keys, key_of, trigger)
        else:
            raw = self._matches_by_scan(left_keys, right_keys, key_of)
        condition = self._condition
        if condition is None:
            return raw
        # The residual seam is consulted once, at the first candidate pair, so
        # a join without candidates never fires it.
        if any(raw) and self.hooks.flag("residual_condition_skipped", trigger):
            return raw
        return [
            [
                right_index for right_index in candidates
                if is_true(condition(left + right_rows[right_index]))
            ]
            for left, candidates in zip(left_rows, raw)
        ]

    # ------------------------------------------------------------------ emission

    def rows(self) -> Iterator[ExecRow]:
        left_rows = list(self.left.rows())
        right_rows = list(self.right.rows())
        has_null_keys = False
        if self.key is not None:
            left_slot = self._left_slot
            right_slot = self._right_slot
            has_null_keys = any(
                is_null(row[left_slot]) for row in left_rows
            ) or any(is_null(row[right_slot]) for row in right_rows)
        trigger = self._trigger(has_null_keys)

        if not self.join_type.keyed:
            output = [left + right for left in left_rows for right in right_rows]
            return iter(self.hooks.post_rows(output, trigger))

        if self.hooks.flag("merge_join_empty_result", trigger):
            return iter(())

        matches = self._find_matches(left_rows, right_rows, trigger)
        emitter = getattr(self, _EMITTERS[self.join_type])
        output = emitter(left_rows, right_rows, matches, trigger)
        return iter(self.hooks.post_rows(output, trigger))

    def _emit_inner(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        emit_padding = self.hooks.flag("inner_join_emit_null_padding", trigger)
        padding = None
        for left, candidates in zip(left_rows, matches):
            for right_index in candidates:
                output.append(left + right_rows[right_index])
            if not candidates and emit_padding:
                if padding is None:
                    padding = self._padding(self.right, trigger)
                output.append(left + padding)
        return output

    def _emit_left_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        as_inner = self.hooks.flag("left_outer_join_as_inner", trigger)
        drop_matched = self.hooks.flag("outer_join_drop_matched_rows", trigger)
        spurious_null = self.hooks.flag("left_outer_emit_spurious_null_row", trigger)
        padding = None
        for left, candidates in zip(left_rows, matches):
            if candidates:
                if not drop_matched:
                    for right_index in candidates:
                        output.append(left + right_rows[right_index])
                if not spurious_null:
                    continue
            elif as_inner:
                continue
            if padding is None:
                padding = self._padding(self.right, trigger)
            output.append(left + padding)
        return output

    def _emit_right_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        as_inner = self.hooks.flag("right_outer_join_as_inner", trigger)
        matched_right = set()
        for left, candidates in zip(left_rows, matches):
            for right_index in candidates:
                matched_right.add(right_index)
                output.append(left + right_rows[right_index])
        if not as_inner:
            self._pad_unmatched_right(output, right_rows, matched_right, trigger)
        return output

    def _emit_full_outer(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        matched_right = set()
        padding = None
        for left, candidates in zip(left_rows, matches):
            if candidates:
                for right_index in candidates:
                    matched_right.add(right_index)
                    output.append(left + right_rows[right_index])
            else:
                if padding is None:
                    padding = self._padding(self.right, trigger)
                output.append(left + padding)
        self._pad_unmatched_right(output, right_rows, matched_right, trigger)
        return output

    def _pad_unmatched_right(self, output, right_rows, matched_right,
                             trigger) -> None:
        """Append every right row no left row matched, padded on the left."""
        padding = None
        for right_index, right in enumerate(right_rows):
            if right_index not in matched_right:
                if padding is None:
                    padding = self._padding(self.left, trigger)
                output.append(padding + right)

    def _emit_semi(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        ignore_key = self.hooks.flag("semijoin_ignore_join_key", trigger)
        drop_null_probe = self.hooks.flag("semijoin_drop_null_probe", trigger)
        left_slot = self._left_slot
        for left, candidates in zip(left_rows, matches):
            if ignore_key and right_rows:
                if not (drop_null_probe and is_null(left[left_slot])):
                    output.append(left)
                continue
            if candidates:
                output.append(left)
        return output

    def _emit_anti(self, left_rows, right_rows, matches, trigger) -> List[ExecRow]:
        output = []
        drop_null = self.hooks.flag("antijoin_drop_null_key_rows", trigger)
        unknown_as_match = self.hooks.flag("antijoin_unknown_as_match", trigger)
        left_slot = self._left_slot
        for left, candidates in zip(left_rows, matches):
            if candidates:
                continue
            if (drop_null or unknown_as_match) and is_null(left[left_slot]):
                continue
            output.append(left)
        return output


_EMITTERS = {
    JoinType.INNER: "_emit_inner",
    JoinType.LEFT_OUTER: "_emit_left_outer",
    JoinType.RIGHT_OUTER: "_emit_right_outer",
    JoinType.FULL_OUTER: "_emit_full_outer",
    JoinType.SEMI: "_emit_semi",
    JoinType.ANTI: "_emit_anti",
}
"""The emission method of each keyed join type."""


def _slot_of(columns: Sequence[str], name: str) -> int:
    """The last slot of *columns* named *name*."""
    for index in range(len(columns) - 1, -1, -1):
        if columns[index] == name:
            return index
    raise ExecutionError(f"join key column {name!r} is not among {list(columns)}")
