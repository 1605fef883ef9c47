"""Hint-set generation: turn one logical query into several transformed queries.

``HintGen`` (Algorithm 1, line 11) picks the hint sets that are relevant for a
given query -- there is no point forcing a merge join on a query without joins,
or disabling semi-join transformation when the query has no semi/anti step -- and
returns the transformed queries the engine will execute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.optimizer.hints import (
    HintSet,
    bka_join_hints,
    block_nested_loop_hints,
    bnlh_join_hints,
    default_hints,
    hash_join_hints,
    index_join_hints,
    join_buffer_minimal_hints,
    join_cache_off_hints,
    join_order_hints,
    merge_join_hints,
    nested_loop_hints,
    no_materialization_hints,
    no_semijoin_hints,
)
from repro.plan.logical import QuerySpec
from repro.plan.sqlrender import SQLRenderer


@dataclass(frozen=True)
class TransformedQuery:
    """A (query, hint set) pair: one physical variant of a logical query."""

    query: QuerySpec
    hints: HintSet

    def render(self) -> str:
        """Bug-report SQL: the reference dialect with the hint comment embedded."""
        return SQLRenderer().query(self.query, self.hints.render_comment())


class HintGenerator:
    """Selects the hint sets relevant to a query and builds transformed queries."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_hint_sets: Optional[int] = None) -> None:
        self.rng = rng or random.Random(31)
        self.max_hint_sets = max_hint_sets

    def hint_sets_for(self, query: QuerySpec) -> List[HintSet]:
        """Hint sets worth trying for *query* (always starting with the default)."""
        hints: List[HintSet] = [
            default_hints(),
            hash_join_hints(),
            block_nested_loop_hints(),
            nested_loop_hints(),
            merge_join_hints(),
            bka_join_hints(),
            bnlh_join_hints(),
            index_join_hints(),
            join_buffer_minimal_hints(1),
        ]
        if any(join_type.filters_by_existence for join_type in query.join_types):
            hints.append(no_materialization_hints())
            hints.append(no_semijoin_hints())
            hints.append(no_materialization_hints(hash_join_hints()))
        if any(join_type.is_outer for join_type in query.join_types):
            hints.append(join_cache_off_hints("join_cache_hashed"))
            hints.append(join_cache_off_hints("join_cache_bka"))
            hints.append(join_cache_off_hints("outer_join_with_cache"))
        if len(query.joins) >= 2:
            order = list(query.aliases)
            tail = order[1:]
            self.rng.shuffle(tail)
            hints.append(join_order_hints([order[0]] + tail))
        if self.max_hint_sets is not None and len(hints) > self.max_hint_sets:
            head, tail = hints[:1], hints[1:]
            self.rng.shuffle(tail)
            hints = head + tail[: self.max_hint_sets - 1]
        return hints

    def transform(self, query: QuerySpec) -> List[TransformedQuery]:
        """Build the transformed queries for *query* (``trans_q`` of Algorithm 1)."""
        return [TransformedQuery(query, hints) for hints in self.hint_sets_for(query)]
