"""Fault injection: the seeded logic bugs of the simulated DBMSs.

The paper evaluates TQS against four real DBMSs whose optimizers contain latent
logic bugs.  Those systems are not available offline, so this module seeds the
same *classes* of bugs (Table 4) into the in-memory engine at the operator seams
defined in :mod:`repro.plan.physical`:

* the ``join_key`` seam corrupts join-key normalization (``0`` vs ``-0``,
  lossy ``varchar``→``double`` casts, cached-constant rounding): a join asks
  :meth:`ActiveFaults.key_function` once for its key function, and a matching
  bug replaces it with one that applies the bug's behaviour and records the
  bug as fired each time a key goes through it;
* the ``null_pad`` seam corrupts the padding of outer joins (NULL becomes an
  empty string or zero, the MariaDB join-buffer bug family); it is consulted
  when a join builds its first padding row;
* the ``flag`` seam enables behavioural deviations (semi-join ignoring its join
  key under materialization, anti-join dropping NULL-key rows, merge join losing
  rows, LEFT JOIN silently converted to INNER JOIN, ...).

A bug only fires when its :class:`FaultTrigger` matches the execution context,
mirroring how the real bugs only manifest under particular physical plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.plan.logical import JoinType
from repro.plan.physical import (
    ExecRow,
    ExecutionHooks,
    JoinAlgorithm,
    KeyFunction,
    TriggerContext,
)
from repro.sqlvalue.casts import cast_for_domain, to_double_lossy
from repro.sqlvalue.comparison import correct_hash_key
from repro.sqlvalue.datatypes import TypeCategory
from repro.sqlvalue.values import NULL, canonical_numeric

HASH_BASED_ALGORITHMS = frozenset(
    {
        JoinAlgorithm.HASH,
        JoinAlgorithm.BLOCK_NESTED_LOOP_HASH,
        JoinAlgorithm.BATCHED_KEY_ACCESS,
        JoinAlgorithm.INDEX_NESTED_LOOP,
    }
)

SCAN_BASED_ALGORITHMS = frozenset(
    {JoinAlgorithm.NESTED_LOOP, JoinAlgorithm.BLOCK_NESTED_LOOP}
)


@dataclass(frozen=True)
class FaultTrigger:
    """Conditions under which a seeded bug fires.

    Every field is optional; ``None`` (or an empty frozenset for
    ``requires_disabled_switches``) means "don't care".  All specified conditions
    must hold simultaneously.
    """

    algorithms: Optional[FrozenSet[JoinAlgorithm]] = None
    join_types: Optional[FrozenSet[JoinType]] = None
    key_domains: Optional[FrozenSet[TypeCategory]] = None
    require_materialization: Optional[bool] = None
    require_semijoin_transform: Optional[bool] = None
    max_join_cache_level: Optional[int] = None
    requires_disabled_switches: FrozenSet[str] = frozenset()
    require_null_keys: Optional[bool] = None
    require_derived_from_subquery: Optional[bool] = None

    def matches(self, ctx: TriggerContext) -> bool:
        """True when the execution context satisfies every condition."""
        if self.algorithms is not None and ctx.algorithm not in self.algorithms:
            return False
        if self.join_types is not None and ctx.join_type not in self.join_types:
            return False
        if self.key_domains is not None and ctx.key_domain not in self.key_domains:
            return False
        if (
            self.require_materialization is not None
            and ctx.materialization != self.require_materialization
        ):
            return False
        if (
            self.require_semijoin_transform is not None
            and ctx.semijoin_transform != self.require_semijoin_transform
        ):
            return False
        if (
            self.max_join_cache_level is not None
            and ctx.join_cache_level > self.max_join_cache_level
        ):
            return False
        if not self.requires_disabled_switches <= ctx.disabled_switches:
            return False
        if self.require_null_keys is not None and ctx.has_null_keys != self.require_null_keys:
            return False
        if (
            self.require_derived_from_subquery is not None
            and ctx.derived_from_subquery != self.require_derived_from_subquery
        ):
            return False
        return True

    @property
    def plan_independent(self) -> bool:
        """True when the bug fires regardless of the chosen physical plan.

        Plan-independent bugs corrupt every hinted variant identically, which is
        why differential testing (the TQS!GT ablation) cannot reveal them.
        """
        return (
            self.algorithms is None
            and self.require_materialization is None
            and self.require_semijoin_transform is None
            and self.max_join_cache_level is None
            and not self.requires_disabled_switches
        )


# --------------------------------------------------------------------- behaviors

_NEGATIVE_ZERO_KEY = -5e-324
"""Denormal float used as the (incorrect) hash/merge key of ``-0`` values."""


def _is_negative_zero(value: Any) -> bool:
    if isinstance(value, float):
        return value == 0.0 and str(value).startswith("-")
    if isinstance(value, Decimal):
        return value == 0 and value.is_signed()
    return False


def _behavior_distinguish_negative_zero(value: Any, domain: TypeCategory) -> Any:
    if _is_negative_zero(value):
        return _NEGATIVE_ZERO_KEY
    return correct_hash_key(cast_for_domain(value, domain))


def _behavior_cast_to_double(value: Any, domain: TypeCategory) -> Any:
    return canonical_numeric(to_double_lossy(value))


def _behavior_round_decimal_constants(value: Any, domain: TypeCategory) -> Any:
    correct = correct_hash_key(cast_for_domain(value, domain))
    if isinstance(correct, (int, float, Decimal)) and not isinstance(correct, bool):
        return int(round(float(correct)))
    return correct


KEY_BEHAVIORS: Dict[str, Callable[[Any, TypeCategory], Any]] = {
    "distinguish_negative_zero": _behavior_distinguish_negative_zero,
    "cast_varchar_to_double": _behavior_cast_to_double,
    "round_decimal_constants": _behavior_round_decimal_constants,
}
"""join_key-seam behaviors by name."""

PAD_BEHAVIORS: Dict[str, Any] = {
    "empty_string": "",
    "zero": 0,
}
"""null_pad-seam behaviors by name (value used instead of NULL)."""


@dataclass(frozen=True)
class BugSpec:
    """One seeded logic bug, mirroring one row of Table 4.

    Attributes
    ----------
    bug_id:
        Stable identifier (1..20, the Table 4 numbering).
    dbms:
        Name of the simulated DBMS the bug belongs to.
    seam:
        ``"flag"``, ``"join_key"`` or ``"null_pad"``.
    behavior:
        Effect name (for ``flag``) or behavior name (for the other seams).
    trigger:
        When the bug fires.
    severity, status, description:
        Reporting metadata copied from Table 4.
    """

    bug_id: int
    dbms: str
    seam: str
    behavior: str
    trigger: FaultTrigger
    severity: str = "Major"
    status: str = "Verified"
    description: str = ""

    def __post_init__(self) -> None:
        if self.seam not in ("flag", "join_key", "null_pad"):
            raise ReproError(f"unknown fault seam {self.seam!r}")
        if self.seam == "join_key" and self.behavior not in KEY_BEHAVIORS:
            raise ReproError(f"unknown join_key behavior {self.behavior!r}")
        if self.seam == "null_pad" and self.behavior not in PAD_BEHAVIORS:
            raise ReproError(f"unknown null_pad behavior {self.behavior!r}")

    @property
    def plan_independent(self) -> bool:
        """Whether differential testing can never reveal this bug."""
        return self.trigger.plan_independent


class ActiveFaults(ExecutionHooks):
    """ExecutionHooks implementation backed by a list of seeded bugs.

    Besides corrupting execution, the object records which bug ids *fired*
    (i.e. had a matching trigger and were consulted at a seam) during the most
    recent query execution; the campaign uses this to attribute a detected
    mismatch to root-cause bug types, standing in for the paper's manual root
    cause analysis with C-Reduce-minimized test cases.
    """

    def __init__(self, bugs: Sequence[BugSpec] = ()) -> None:
        self.bugs: Tuple[BugSpec, ...] = tuple(bugs)
        self.fired: Set[int] = set()
        # The bugs matching the most recent trigger, by seam.  A join builds
        # one TriggerContext and consults the seams with it for every row, so
        # resolving the triggers once per TriggerContext takes the matching
        # out of the per-row loops.  The pair is replaced in one assignment
        # and read once per call, so concurrent executions never see another
        # trigger's matches.
        self._memo: Optional[Tuple[TriggerContext, Dict[str, List[BugSpec]]]] = None

    # -------------------------------------------------------------- bookkeeping

    def reset_fired(self) -> None:
        """Clear the fired-bug record (called before each query execution)."""
        self.fired.clear()

    def _matching(self, seam: str, trigger: TriggerContext) -> List[BugSpec]:
        """The bugs of *seam* whose trigger matches, in declaration order."""
        memo = self._memo
        if memo is None or memo[0] is not trigger:
            by_seam: Dict[str, List[BugSpec]] = {"flag": [], "join_key": [], "null_pad": []}
            for bug in self.bugs:
                if bug.trigger.matches(trigger):
                    by_seam[bug.seam].append(bug)
            memo = (trigger, by_seam)
            self._memo = memo
        return memo[1][seam]

    # ------------------------------------------------------------------- seams

    def key_function(self, domain: TypeCategory, trigger: TriggerContext) -> KeyFunction:
        matching = self._matching("join_key", trigger)
        if not matching:
            return super().key_function(domain, trigger)
        fired = self.fired
        bug_ids = [bug.bug_id for bug in matching]
        behaviors = [KEY_BEHAVIORS[bug.behavior] for bug in matching]

        def faulty_key(value: Any) -> Any:
            # Fired per call, not per resolution: a join whose keys are all
            # NULL never applies its key function and fires nothing.
            fired.update(bug_ids)
            for behavior in behaviors:
                value = behavior(value, domain)
            return value

        return faulty_key

    def null_pad_value(self, column: str, trigger: TriggerContext) -> Any:
        matching = self._matching("null_pad", trigger)
        if not matching:
            return NULL
        bug = matching[0]
        self.fired.add(bug.bug_id)
        return PAD_BEHAVIORS[bug.behavior]

    def flag(self, effect: str, trigger: TriggerContext) -> bool:
        for bug in self._matching("flag", trigger):
            if bug.behavior == effect:
                self.fired.add(bug.bug_id)
                return True
        return False

    def post_rows(self, rows: List[ExecRow], trigger: TriggerContext) -> List[ExecRow]:
        return rows

    # --------------------------------------------------------------- utilities

    def bug_by_id(self, bug_id: int) -> BugSpec:
        """Look up a seeded bug by id."""
        for bug in self.bugs:
            if bug.bug_id == bug_id:
                return bug
        raise ReproError(f"no seeded bug with id {bug_id}")

    def plan_independent_ids(self) -> Set[int]:
        """Ids of seeded bugs that no differential comparison can reveal."""
        return {bug.bug_id for bug in self.bugs if bug.plan_independent}

    def __len__(self) -> int:
        return len(self.bugs)
