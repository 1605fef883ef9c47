"""Physical plan infrastructure: operator base class, rows, and fault hooks.

Execution rows are tuples laid out as their operator's
:meth:`PhysicalOperator.output_columns` (qualified ``"alias.column"`` names
below the projection).  Every operator is an iterator factory:
:meth:`PhysicalOperator.rows` yields output rows.  An operator compiles its
expressions against its input layout once, when the plan is built, so the
per-row work is slot reads and closure calls.  Join operators consult an
:class:`ExecutionHooks` object at well-defined seams (key normalization, NULL
padding, semi/anti matching decisions); the default implementation is bug-free
and the simulated DBMS dialects override it to inject the logic bugs of Table 4.
"""

from __future__ import annotations

import enum
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.plan.logical import JoinType
from repro.sqlvalue.casts import cast_for_domain
from repro.sqlvalue.comparison import correct_hash_key
from repro.sqlvalue.datatypes import TypeCategory
from repro.sqlvalue.values import NULL

ExecRow = Tuple[Any, ...]
"""A row during execution: one value per column of the operator's layout."""

KeyFunction = Callable[[Any], Any]
"""Normalizes one non-NULL join key before hashing / comparison."""


class JoinAlgorithm(enum.Enum):
    """Physical join algorithms implemented by the engines.

    These are the algorithms named in the paper's bug listings and hint sets:
    plain / block nested loop, block nested loop hash (BNLH), batched key access
    (BKA / BKAH), classic hash join, sort-merge join and index nested loop.
    """

    NESTED_LOOP = "nested_loop"
    BLOCK_NESTED_LOOP = "block_nested_loop"
    BLOCK_NESTED_LOOP_HASH = "block_nested_loop_hash"
    BATCHED_KEY_ACCESS = "batched_key_access"
    HASH = "hash"
    SORT_MERGE = "sort_merge"
    INDEX_NESTED_LOOP = "index_nested_loop"

    @property
    def uses_hash_table(self) -> bool:
        """Algorithms that probe a hash structure rather than comparing values."""
        return self in (
            JoinAlgorithm.BLOCK_NESTED_LOOP_HASH,
            JoinAlgorithm.BATCHED_KEY_ACCESS,
            JoinAlgorithm.HASH,
            JoinAlgorithm.INDEX_NESTED_LOOP,
        )

    @property
    def matching(self) -> str:
        """The matching routine a join of this algorithm runs: ``"merge"``,
        ``"hash"`` or ``"scan"``.

        It is the only use a join makes of its algorithm besides its trigger
        context.  Under the bug-free key function the three routines return
        the same match lists, so a routine shows in a join's output only
        through seams read inside it (see
        :data:`~repro.plan.joins.MATCHING_EFFECT_NAMES`) or a faulty key
        function.
        """
        if self is JoinAlgorithm.SORT_MERGE:
            return "merge"
        return "hash" if self.uses_hash_table else "scan"


class TriggerContext(NamedTuple):
    """Everything a fault needs to decide whether it fires at a given seam.

    Attributes mirror the trigger conditions quoted in the paper's bug reports:
    which physical algorithm runs, which logical join type, whether subquery
    materialization / semi-join transformation is active, the comparison domain
    of the join keys, and whether the step sits below a subquery.  A named
    tuple, so immutable and cheap to build: every plan builds one per join
    step, and every join execution one more.
    """

    algorithm: Optional[JoinAlgorithm] = None
    join_type: Optional[JoinType] = None
    key_domain: Optional[TypeCategory] = None
    materialization: bool = False
    semijoin_transform: bool = True
    join_cache_level: int = 8
    derived_from_subquery: bool = False
    has_null_keys: bool = False
    disabled_switches: frozenset = frozenset()


def _float_key(value: float) -> Any:
    """``correct_hash_key`` of a float: -0.0 is 0.0, integral floats are ints."""
    if value == 0.0:
        return 0.0
    return int(value) if value.is_integer() else value


def _correct_key_function(domain: TypeCategory) -> KeyFunction:
    """The bug-free key normalization of *domain*, with exact fast paths.

    The result always equals ``correct_hash_key(cast_for_domain(v, domain))``
    in type and value: a ``str`` in a string domain, an ``int`` in DECIMAL and
    an ``int``/``float`` in the DOUBLE domains take a shortcut computing that
    same value; everything else goes the long way.
    """

    def slow(value: Any) -> Any:
        return correct_hash_key(cast_for_domain(value, domain))

    if domain in (TypeCategory.STRING, TypeCategory.TEMPORAL):

        def string_key(value: Any) -> Any:
            return value if type(value) is str else slow(value)

        return string_key
    if domain is TypeCategory.DECIMAL:

        def decimal_key(value: Any) -> Any:
            return value if type(value) is int else slow(value)

        return decimal_key

    def double_key(value: Any) -> Any:
        kind = type(value)
        if kind is float:
            return _float_key(value)
        if kind is int:
            return _float_key(float(value))
        return slow(value)

    return double_key


_CORRECT_KEY_FUNCTIONS: Dict[TypeCategory, KeyFunction] = {
    domain: _correct_key_function(domain) for domain in TypeCategory
}


class ExecutionHooks:
    """Bug-free default implementation of every fault seam.

    The fault-injection layer (:mod:`repro.engine.faults`) subclasses this and
    overrides individual seams when a seeded bug's trigger condition matches the
    :class:`TriggerContext`.

    Every seam must answer from its arguments alone.  :meth:`behaviour_key`
    summarizes those answers for one join: two triggers of one join step
    with equal keys must give equal rows and fired bug ids, for either
    ``has_null_keys`` value and whatever matching routine runs, because the
    engine runs a prepared query once per distinct key and hands that
    execution's rows and fired bug ids to every hint set sharing it.
    """

    def behaviour_key(self, trigger: TriggerContext) -> Hashable:
        """A value equal for two planned triggers of one join step only if
        the join gives equal rows and fired bug ids under both, whatever
        ``has_null_keys`` it finds at run time and whatever matching routine
        (:attr:`JoinAlgorithm.matching`) their algorithms pick.

        The trigger itself is always a sound key: it carries the algorithm,
        and with it the routine.  A subclass may return a coarser key.  It
        may leave the routine out for a trigger whose key function is the
        bug-free one and whose answers at the seams read inside a routine
        (:data:`~repro.plan.joins.MATCHING_EFFECT_NAMES`) are the bug-free
        ones: the routines then return the same match lists.

        A planner asks once per distinct input of its planned triggers and
        keeps the answer, so the key must depend on the trigger alone.
        """
        return trigger

    def key_function(self, domain: TypeCategory, trigger: TriggerContext) -> KeyFunction:
        """The join-key normalization of one join, comparing in *domain*.

        A join resolves it once and applies it to every non-NULL key, before
        hashing, scanning or merging.
        """
        return _CORRECT_KEY_FUNCTIONS[domain]

    def null_pad_value(self, column: str, trigger: TriggerContext) -> Any:
        """Value used to pad the non-preserved side of an outer join."""
        return NULL

    def flag(self, effect: str, trigger: TriggerContext) -> bool:
        """Generic boolean fault seam; the default engine never misbehaves."""
        return False

    def post_rows(self, rows: List[ExecRow], trigger: TriggerContext) -> List[ExecRow]:
        """Hook applied to an operator's full output (used by result-corruption bugs)."""
        return rows


class PhysicalOperator:
    """Base class of all physical operators."""

    def rows(self) -> Iterator[ExecRow]:
        """Yield output rows."""
        raise NotImplementedError

    def execute(self) -> List[ExecRow]:
        """Materialize the full output."""
        return list(self.rows())

    def output_columns(self) -> List[str]:
        """Qualified column names this operator produces."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description used by EXPLAIN-style plan dumps."""
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        """Recursive plan description."""
        lines = ["  " * depth + "-> " + self.describe()]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def children(self) -> List["PhysicalOperator"]:
        """Child operators."""
        return []
