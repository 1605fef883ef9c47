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
Each trigger condition is stated once; :meth:`FaultTrigger.matches` tests
them one by one, and :class:`ActiveFaults` matches by per-field bitmasks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import ReproError
from repro.plan.joins import MATCHING_EFFECT_NAMES
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
        return all(_accepts(getattr(self, attribute), test, ctx[index])
                   for index, attribute, test in _CONDITIONS)

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


def _accepts(required: Any, test: Callable[[Any, Any], bool], value: Any) -> bool:
    return required is None or test(required, value)


_CONDITIONS: Tuple[Tuple[int, str, Callable[[Any, Any], bool]], ...] = tuple(
    (TriggerContext._fields.index(field), attribute, test)
    for field, attribute, test in (
        ("algorithm", "algorithms", operator.contains),
        ("join_type", "join_types", operator.contains),
        ("key_domain", "key_domains", operator.contains),
        ("materialization", "require_materialization", operator.eq),
        ("semijoin_transform", "require_semijoin_transform", operator.eq),
        ("join_cache_level", "max_join_cache_level", operator.ge),
        ("disabled_switches", "requires_disabled_switches", operator.le),
        ("derived_from_subquery", "require_derived_from_subquery", operator.eq),
        ("has_null_keys", "require_null_keys", operator.eq),
    )
)
"""Each condition of a :class:`FaultTrigger`, stated once: the index of the
:class:`TriggerContext` field it reads, the trigger attribute it compares,
and how: a value passes when the attribute is None or ``test(attribute,
value)`` holds.  ``has_null_keys`` comes last: a join finds it at run time,
its plan fixes the others."""

_PLANNED_CONDITIONS = len(_CONDITIONS) - 1


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


def _read_in_matching_routine(bug: BugSpec) -> bool:
    """Whether *bug*'s seam is read inside a join's matching routine: the
    key function, which each routine applies and compares its own way, or a
    flag of :data:`~repro.plan.joins.MATCHING_EFFECT_NAMES`."""
    return bug.seam == "join_key" or (
        bug.seam == "flag" and bug.behavior in MATCHING_EFFECT_NAMES)


class ActiveFaults(ExecutionHooks):
    """ExecutionHooks implementation backed by a list of seeded bugs.

    Besides corrupting execution, the object records which bug ids *fired*
    (i.e. had a matching trigger and were consulted at a seam) during the most
    recent query execution; the campaign uses this to attribute a detected
    mismatch to root-cause bug types, standing in for the paper's manual root
    cause analysis with C-Reduce-minimized test cases.

    Bit *i* of a mask stands for the *i*-th bug.  Per trigger condition, a
    dict maps each field value seen so far to the mask of the bugs accepting
    it, and a trigger matches the AND of its fields' masks.  Each trigger's
    mask is kept, keyed by the trigger, and a join hands one trigger to all
    its seams per execution, so the seams also keep the last trigger's mask
    by identity.  Entries are whole when assigned, so threads sharing the
    object see a whole entry or none.
    """

    def __init__(self, bugs: Sequence[BugSpec] = ()) -> None:
        self.bugs: Tuple[BugSpec, ...] = tuple(bugs)
        self.fired: Set[int] = set()
        self._seam_masks: Dict[Hashable, int] = {}
        for position, bug in enumerate(self.bugs):
            for name in (bug.seam, (bug.seam, bug.behavior)):
                self._seam_masks[name] = self._seam_masks.get(name, 0) | 1 << position
        self._routine_mask = self._mask_where(_read_in_matching_routine)
        self._field_masks: Tuple[Dict[Any, int], ...] = tuple(
            {} for _ in _CONDITIONS)
        self._trigger_masks: Dict[TriggerContext, int] = {}
        self._last: Tuple[Optional[TriggerContext], int] = (None, 0)

    # -------------------------------------------------------------- bookkeeping

    def reset_fired(self) -> None:
        """Clear the fired-bug record (called before each query execution)."""
        self.fired.clear()

    def _mask_where(self, predicate: Callable[[BugSpec], bool]) -> int:
        """The mask of the bugs satisfying *predicate*."""
        return sum(1 << position for position, bug in enumerate(self.bugs)
                   if predicate(bug))

    def _field_mask(self, condition: int, value: Any) -> int:
        """The mask of the bugs whose *condition*-th condition accepts *value*."""
        masks = self._field_masks[condition]
        mask = masks.get(value)
        if mask is None:
            _, attribute, test = _CONDITIONS[condition]
            mask = self._mask_where(
                lambda bug: _accepts(getattr(bug.trigger, attribute), test, value))
            masks[value] = mask
        return mask

    def _planned_mask(self, trigger: TriggerContext) -> int:
        """The mask of the bugs accepting each field of *trigger* a plan fixes."""
        mask = -1
        for condition in range(_PLANNED_CONDITIONS):
            mask &= self._field_mask(condition, trigger[_CONDITIONS[condition][0]])
        return mask

    def _seam_bugs(self, seam: Hashable, trigger: TriggerContext) -> int:
        """The mask of the matching bugs of a seam or (seam, behaviour) pair."""
        last = self._last
        if last[0] is not trigger:
            mask = self._trigger_masks.get(trigger)
            if mask is None:
                mask = self._trigger_masks[trigger] = self._planned_mask(
                    trigger) & self._field_mask(
                        _PLANNED_CONDITIONS, trigger.has_null_keys)
            last = self._last = (trigger, mask)
        return last[1] & self._seam_masks.get(seam, 0)

    def _bugs_of(self, mask: int) -> List[BugSpec]:
        """The bugs of *mask* in declaration order."""
        return [self.bugs[at] for at in range(mask.bit_length()) if mask >> at & 1]

    def behaviour_key(self, trigger: TriggerContext) -> Hashable:
        """The masks of the bugs matching *trigger* with ``has_null_keys``
        false and true: every seam answers from the matching bugs alone.

        Beside them stands the trigger's matching routine when a matching
        bug is read inside a routine (see :func:`_read_in_matching_routine`),
        and None otherwise: then the key function is the bug-free one and
        every routine returns the same matches and reads the same seams, so
        hint sets picking hash, scan or merge matching share one execution.
        """
        planned = self._planned_mask(trigger)
        masks = (planned & self._field_mask(_PLANNED_CONDITIONS, False),
                 planned & self._field_mask(_PLANNED_CONDITIONS, True))
        reads_routine = (masks[0] | masks[1]) & self._routine_mask
        return masks, trigger.algorithm.matching if reads_routine else None

    # ------------------------------------------------------------------- seams

    def key_function(self, domain: TypeCategory, trigger: TriggerContext) -> KeyFunction:
        matching = self._bugs_of(self._seam_bugs("join_key", trigger))
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
        matching = self._seam_bugs("null_pad", trigger)
        if not matching:
            return NULL
        bug = self._bugs_of(matching)[0]
        self.fired.add(bug.bug_id)
        return PAD_BEHAVIORS[bug.behavior]

    def flag(self, effect: str, trigger: TriggerContext) -> bool:
        matching = self._seam_bugs(("flag", effect), trigger)
        if not matching:
            return False
        self.fired.add(self._bugs_of(matching)[0].bug_id)
        return True

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
