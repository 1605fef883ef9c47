"""Optimizer hints and switches.

All four simulated DBMSs expose the same hint surface the paper relies on
(`MySQL optimizer hints`, `MariaDB optimizer_switch`, `TiDB hints`): forcing a join
algorithm, fixing the join order, and toggling optimizer switches such as
``materialization``, ``semijoin`` and the join-cache levels.  A
:class:`HintSet` captures one combination; the DSG hint generator emits several
hint sets per query so the engine executes several different physical plans for
the same logical query (the ``trans_q`` of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HintError
from repro.plan.physical import JoinAlgorithm

#: optimizer switches understood by the planner, with their default values.
DEFAULT_SWITCHES: Dict[str, bool] = {
    "materialization": True,
    "semijoin": True,
    "join_cache_hashed": True,
    "join_cache_bka": True,
    "join_cache_incremental": True,
    "outer_join_with_cache": True,
    "derived_to_subquery": True,
}

#: join-buffer level, MariaDB style (1 = plain BNL only ... 8 = all algorithms).
DEFAULT_JOIN_CACHE_LEVEL = 8


@dataclass(frozen=True)
class HintSet:
    """One combination of optimizer hints.

    Attributes
    ----------
    name:
        Short label used in logs and rendered as the hint comment.
    join_algorithm:
        Force every join step to use this algorithm (``None`` = cost based).
    per_step_algorithms:
        Force specific steps (0-based index into ``QuerySpec.joins``).
    join_order:
        Desired FROM-clause order of table aliases (``JOIN_ORDER`` hint).
    switches:
        Overrides of :data:`DEFAULT_SWITCHES`.
    join_cache_level:
        MariaDB ``join_cache_level`` (1..8).
    """

    name: str = "default"
    join_algorithm: Optional[JoinAlgorithm] = None
    per_step_algorithms: Tuple[Tuple[int, JoinAlgorithm], ...] = ()
    join_order: Tuple[str, ...] = ()
    switches: Tuple[Tuple[str, bool], ...] = ()
    join_cache_level: int = DEFAULT_JOIN_CACHE_LEVEL

    def __post_init__(self) -> None:
        for key, _ in self.switches:
            if key not in DEFAULT_SWITCHES:
                raise HintError(f"unknown optimizer switch {key!r}")
        if not 1 <= self.join_cache_level <= 8:
            raise HintError("join_cache_level must be between 1 and 8")

    # -------------------------------------------------------------- accessors

    def switch(self, name: str) -> bool:
        """Effective value of an optimizer switch."""
        if name not in DEFAULT_SWITCHES:
            raise HintError(f"unknown optimizer switch {name!r}")
        for key, value in self.switches:
            if key == name:
                return value
        return DEFAULT_SWITCHES[name]

    def algorithm_for_step(self, step_index: int) -> Optional[JoinAlgorithm]:
        """Algorithm forced for a specific join step, if any."""
        for index, algorithm in self.per_step_algorithms:
            if index == step_index:
                return algorithm
        return self.join_algorithm

    # -------------------------------------------------------------- rendering

    def render_comment(self) -> str:
        """Render the hint set as the SQL hint comment used in bug reports."""
        parts: List[str] = []
        if self.join_algorithm is not None:
            parts.append(f"{self.join_algorithm.value}_join()")
        for index, algorithm in self.per_step_algorithms:
            parts.append(f"{algorithm.value}_join(step{index})")
        if self.join_order:
            parts.append(f"JOIN_ORDER({', '.join(self.join_order)})")
        for key, value in self.switches:
            parts.append(f"set_var(optimizer_switch='{key}={'on' if value else 'off'}')")
        if self.join_cache_level != DEFAULT_JOIN_CACHE_LEVEL:
            parts.append(f"set_var(join_cache_level={self.join_cache_level})")
        return " ".join(parts) if parts else "default_plan()"

    def with_switch(self, name: str, value: bool) -> "HintSet":
        """Return a copy with one switch overridden."""
        if name not in DEFAULT_SWITCHES:
            raise HintError(f"unknown optimizer switch {name!r}")
        remaining = tuple((k, v) for k, v in self.switches if k != name)
        return replace(self, switches=remaining + ((name, value),))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"HintSet({self.name}: {self.render_comment()})"


# ------------------------------------------------------------------ factories

_DEFAULT_HINTS = HintSet(name="default")


def default_hints() -> HintSet:
    """The cost-based default plan (no hints): one shared frozen instance."""
    return _DEFAULT_HINTS


def force_algorithm(algorithm: JoinAlgorithm, name: Optional[str] = None) -> HintSet:
    """Force all joins to use *algorithm*."""
    return HintSet(name=name or f"force_{algorithm.value}", join_algorithm=algorithm)


def hash_join_hints() -> HintSet:
    """``/*+ hash_join() */``."""
    return force_algorithm(JoinAlgorithm.HASH, "hash_join")


def merge_join_hints() -> HintSet:
    """``/*+ merge_join() */`` (TiDB style)."""
    return force_algorithm(JoinAlgorithm.SORT_MERGE, "merge_join")


def block_nested_loop_hints() -> HintSet:
    """``/*+ bnl_join() */``."""
    return force_algorithm(JoinAlgorithm.BLOCK_NESTED_LOOP, "bnl_join")


def nested_loop_hints() -> HintSet:
    """``/*+ no_bnl() no_hash_join() */`` — plain nested loop."""
    return force_algorithm(JoinAlgorithm.NESTED_LOOP, "nested_loop_join")


def bka_join_hints() -> HintSet:
    """``/*+ bka_join() */`` — batched key access."""
    return force_algorithm(JoinAlgorithm.BATCHED_KEY_ACCESS, "bka_join")


def bnlh_join_hints() -> HintSet:
    """Block nested loop hash join (MariaDB BNLH)."""
    return force_algorithm(JoinAlgorithm.BLOCK_NESTED_LOOP_HASH, "bnlh_join")


def index_join_hints() -> HintSet:
    """Index nested loop join."""
    return force_algorithm(JoinAlgorithm.INDEX_NESTED_LOOP, "index_nl_join")


def no_materialization_hints(base: Optional[HintSet] = None) -> HintSet:
    """``SET optimizer_switch='materialization=off'``."""
    hints = base or default_hints()
    return replace(hints.with_switch("materialization", False),
                   name=f"{hints.name}+no_materialization")


def no_semijoin_hints(base: Optional[HintSet] = None) -> HintSet:
    """``/*+ no_semijoin() */``."""
    hints = base or default_hints()
    return replace(hints.with_switch("semijoin", False),
                   name=f"{hints.name}+no_semijoin")


def join_cache_off_hints(kind: str = "join_cache_hashed") -> HintSet:
    """``SET optimizer_switch='join_cache_hashed=off'`` style hint sets."""
    return replace(default_hints().with_switch(kind, False), name=f"{kind}_off")


def join_order_hints(order: Sequence[str]) -> HintSet:
    """``/*+ JOIN_ORDER(t3, t1, t2) */``."""
    return HintSet(name="join_order", join_order=tuple(order))


def join_buffer_minimal_hints(level: int = 1) -> HintSet:
    """``SET join_cache_level=<level>`` — restrict the join buffer usage."""
    return HintSet(name=f"join_cache_level_{level}", join_cache_level=level)


def standard_hint_sets() -> List[HintSet]:
    """The hint sets TQS cycles through by default (the hint set ``H`` of Alg. 1)."""
    return [
        default_hints(),
        hash_join_hints(),
        merge_join_hints(),
        block_nested_loop_hints(),
        nested_loop_hints(),
        bka_join_hints(),
        bnlh_join_hints(),
        index_join_hints(),
        no_materialization_hints(),
        no_semijoin_hints(),
        no_materialization_hints(hash_join_hints()),
        join_cache_off_hints("join_cache_hashed"),
        join_cache_off_hints("join_cache_bka"),
        join_cache_off_hints("outer_join_with_cache"),
        join_buffer_minimal_hints(1),
    ]
