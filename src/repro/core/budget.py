"""Pluggable per-hour budget policies for sharded campaigns.

The parallel runner splits one campaign's ``queries_per_hour`` budget across
its shards.  Historically that split was fixed and even; this module makes it a
policy object with two decision points:

* :meth:`BudgetPolicy.split` — the initial allocation, before any shard has
  run (largest-remainder even split by default, matching the historical
  behaviour bit for bit);
* :meth:`BudgetPolicy.rebalance` — called by the central coordinator at every
  sync round with each shard's *novel-label count* for the round (canonical
  labels the shard contributed that the central index had never seen).  The
  returned allocation is shipped back to the workers inside the round's
  :class:`~repro.distributed.protocol.SyncBroadcast`.  Rounds are
  stale-synchronous — a worker receives a round's broadcast at its next
  scheduled sync — so the allocation governs the hours after that next sync:
  a reallocation lands one round after the round that decided it.

Policies must conserve the total budget: every allocation they return sums to
the campaign's ``queries_per_hour``, so the budget identity
``queries_generated + generations_rejected == hours * queries_per_hour`` holds
for merged campaigns under any policy.  Rebalancing decisions are pure
functions of round content, never of timing, so adaptive campaigns stay
deterministic for a fixed seed (over the local queue transport and TCP alike).

:class:`AdaptiveBudgetPolicy` implements the ROADMAP's adaptive-shard-budgets
item: budget flows toward shards whose recent rounds discovered more novel
query-graph structures, raising merged diversity per wall-clock second while a
configurable floor keeps any shard from starving entirely.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from repro.errors import CampaignError


def split_budget(total: int, shares: int) -> List[int]:
    """Largest-remainder even split of *total* into *shares* integer parts.

    The remainder goes to the first shares, e.g. ``split_budget(14, 4) ==
    [4, 4, 3, 3]`` — exactly the split :func:`shard_campaign_configs` has
    always produced.
    """
    if shares < 1:
        raise CampaignError("cannot split a budget over zero shares")
    base, remainder = divmod(total, shares)
    return [base + (1 if index < remainder else 0) for index in range(shares)]


def redistribute_budget(budgets: Mapping[int, int],
                        evicted: int) -> Dict[int, int]:
    """Reassign an evicted shard's per-hour budget to the survivors.

    The freed budget is spread over the surviving shards by largest-remainder
    split in sorted shard order (deterministic), so the campaign's per-hour
    total is conserved: ``sum(result.values()) == sum(budgets.values())``.
    Evicting an unknown shard is a no-op; evicting the only shard returns an
    empty allocation (the budget has nowhere to go).
    """
    if evicted not in budgets:
        return dict(budgets)
    freed = budgets[evicted]
    survivors = sorted(sid for sid in budgets if sid != evicted)
    allocation = {sid: budgets[sid] for sid in survivors}
    if not survivors:
        return {}
    for sid, extra in zip(survivors, split_budget(freed, len(survivors))):
        allocation[sid] += extra
    return allocation


class BudgetPolicy:
    """How a campaign's per-hour query budget is spread over its shards.

    The base class is the even, static policy: the initial split is even and
    :meth:`rebalance` returns the allocation unchanged.  Subclasses override
    :meth:`rebalance`; they must return a dict over exactly the same shard ids
    whose values sum to the same total.
    """

    name = "even"

    def split(self, total: int, shares: int) -> List[int]:
        """The initial allocation, before any shard has produced anything."""
        return split_budget(total, shares)

    def rebalance(self, budgets: Mapping[int, int],
                  novel_counts: Mapping[int, int]) -> Dict[int, int]:
        """One sync round's reallocation decision.

        *budgets* maps shard id to its current per-hour budget; *novel_counts*
        maps shard id to the number of label-novel index entries the shard
        contributed this round.  The default keeps the allocation unchanged.
        """
        return dict(budgets)


class EvenBudgetPolicy(BudgetPolicy):
    """The historical fixed even split, as an explicit named policy."""


class AdaptiveBudgetPolicy(BudgetPolicy):
    """Rebalance budget toward shards discovering novel structures faster.

    At each sync round the next allocation is proportional to each shard's
    smoothed novelty weight ``novel_count + smoothing``, floored at
    ``min_budget`` queries per hour so a shard that went cold keeps probing
    (its database replica may still hold unexplored structures), with the
    integer remainder distributed by largest fractional part (ties to the
    lower shard id, so rounds are deterministic).

    The allocation is monotone in the novelty signal: a shard that discovered
    at least as many novel labels as a peer is never allocated less than that
    peer.
    """

    name = "adaptive"

    def __init__(self, min_budget: int = 1, smoothing: float = 1.0) -> None:
        if min_budget < 0:
            raise CampaignError("min_budget must be non-negative")
        if smoothing <= 0:
            raise CampaignError(
                "smoothing must be positive (a zero-novelty round would "
                "otherwise divide by zero)"
            )
        self.min_budget = min_budget
        self.smoothing = smoothing

    def rebalance(self, budgets: Mapping[int, int],
                  novel_counts: Mapping[int, int]) -> Dict[int, int]:
        shard_ids = sorted(budgets)
        total = sum(budgets.values())
        floor = self.min_budget
        if total < floor * len(shard_ids):
            # Not enough budget to honour the floor; fall back to even.
            allocation = split_budget(total, len(shard_ids))
            return {sid: allocation[i] for i, sid in enumerate(shard_ids)}
        spread = total - floor * len(shard_ids)
        weights = {
            sid: novel_counts.get(sid, 0) + self.smoothing for sid in shard_ids
        }
        weight_sum = sum(weights.values())
        raw = {sid: spread * weights[sid] / weight_sum for sid in shard_ids}
        allocation = {sid: floor + int(raw[sid]) for sid in shard_ids}
        leftover = total - sum(allocation.values())
        # Largest fractional remainder first; ties broken by shard id so the
        # result never depends on dict ordering or arrival timing.
        by_remainder = sorted(
            shard_ids, key=lambda sid: (-(raw[sid] - int(raw[sid])), sid)
        )
        for sid in by_remainder[:leftover]:
            allocation[sid] += 1
        return allocation


_POLICY_FACTORIES: Dict[str, Callable[[], BudgetPolicy]] = {}


def register_budget_policy(name: str,
                           factory: Callable[[], BudgetPolicy]) -> None:
    """Register a budget policy under *name* for CLI / config lookup."""
    _POLICY_FACTORIES[name] = factory


def budget_policy_from_name(name: str) -> BudgetPolicy:
    """Construct a registered budget policy from its plain-string name."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICY_FACTORIES))
        raise CampaignError(
            f"unknown budget policy {name!r}; registered policies: {known}"
        ) from None
    return factory()


def registered_budget_policies() -> List[str]:
    """The names accepted by :func:`budget_policy_from_name`, sorted."""
    return sorted(_POLICY_FACTORIES)


register_budget_policy("even", EvenBudgetPolicy)
register_budget_policy("adaptive", AdaptiveBudgetPolicy)
