"""Tests for pluggable shard budget policies (repro.core.budget)."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import parallel_result_to_dict
from repro.core import (
    AdaptiveBudgetPolicy,
    CampaignConfig,
    EvenBudgetPolicy,
    ParallelCampaignConfig,
    budget_policy_from_name,
    register_budget_policy,
    build_shard_specs,
    registered_budget_policies,
    run_parallel_shards,
    split_budget,
)
from repro.core.budget import _POLICY_FACTORIES, redistribute_budget
from repro.distributed.coordinator import CentralCoordinator
from repro.errors import CampaignError


# ----------------------------------------------------------------- unit tests


class TestSplitBudget:
    def test_largest_remainder_split(self):
        assert split_budget(14, 4) == [4, 4, 3, 3]
        assert split_budget(12, 4) == [3, 3, 3, 3]
        assert split_budget(2, 3) == [1, 1, 0]

    def test_zero_shares_rejected(self):
        with pytest.raises(CampaignError):
            split_budget(10, 0)

    def test_zero_budget_splits_to_zeros(self):
        """Zero-budget hours are legal: every shard idles, nothing crashes."""
        assert split_budget(0, 3) == [0, 0, 0]


class TestRebalanceEdgeCases:
    def test_single_shard_rebalance_keeps_the_whole_budget(self):
        policy = AdaptiveBudgetPolicy()
        assert policy.rebalance({3: 7}, {3: 0}) == {3: 7}
        assert policy.rebalance({3: 7}, {3: 1000}) == {3: 7}

    def test_zero_total_budget_rebalances_to_zeros(self):
        policy = AdaptiveBudgetPolicy()
        allocation = policy.rebalance({0: 0, 1: 0}, {0: 5, 1: 0})
        assert allocation == {0: 0, 1: 0}

    def test_even_policy_zero_budget_identity(self):
        policy = EvenBudgetPolicy()
        assert policy.rebalance({0: 0, 1: 0}, {0: 9, 1: 9}) == {0: 0, 1: 0}


class TestRedistributeBudget:
    def test_freed_budget_goes_to_survivors_largest_remainder(self):
        assert redistribute_budget({0: 4, 1: 4, 2: 5}, 2) == {0: 7, 1: 6}

    def test_total_is_conserved(self):
        budgets = {0: 3, 1: 5, 2: 7, 3: 2}
        for evicted in budgets:
            result = redistribute_budget(budgets, evicted)
            assert sum(result.values()) == sum(budgets.values())
            assert evicted not in result

    def test_unknown_shard_is_a_no_op(self):
        budgets = {0: 4, 1: 4}
        assert redistribute_budget(budgets, 9) == budgets

    def test_sole_shard_eviction_empties_the_allocation(self):
        assert redistribute_budget({0: 6}, 0) == {}

    def test_zero_budget_eviction_changes_nothing_else(self):
        assert redistribute_budget({0: 0, 1: 6}, 0) == {1: 6}


class TestEvenPolicy:
    def test_rebalance_is_identity(self):
        policy = EvenBudgetPolicy()
        budgets = {0: 4, 1: 4, 2: 4}
        assert policy.rebalance(budgets, {0: 9, 1: 0, 2: 3}) == budgets


class TestAdaptivePolicy:
    def test_total_budget_conserved(self):
        policy = AdaptiveBudgetPolicy()
        budgets = {0: 6, 1: 6, 2: 6, 3: 6}
        for novel in ({0: 10, 1: 0, 2: 5, 3: 1}, {0: 0, 1: 0, 2: 0, 3: 0},
                      {0: 1, 1: 1, 2: 1, 3: 100}):
            allocation = policy.rebalance(budgets, novel)
            assert sum(allocation.values()) == sum(budgets.values())
            assert set(allocation) == set(budgets)
            budgets = allocation

    def test_monotone_rebalancing(self):
        """More novel labels never means a smaller allocation than a peer."""
        policy = AdaptiveBudgetPolicy()
        budgets = {0: 8, 1: 8, 2: 8}
        novel = {0: 12, 1: 3, 2: 0}
        allocation = policy.rebalance(budgets, novel)
        assert allocation[0] >= allocation[1] >= allocation[2]
        assert allocation[0] > allocation[2]  # the signal actually moves budget

    def test_floor_keeps_cold_shards_probing(self):
        policy = AdaptiveBudgetPolicy(min_budget=2)
        allocation = policy.rebalance({0: 10, 1: 10}, {0: 1000, 1: 0})
        assert allocation[1] >= 2
        assert sum(allocation.values()) == 20

    def test_small_total_falls_back_to_even(self):
        policy = AdaptiveBudgetPolicy(min_budget=5)
        allocation = policy.rebalance({0: 2, 1: 2}, {0: 50, 1: 0})
        assert sum(allocation.values()) == 4

    def test_rebalance_is_deterministic(self):
        policy = AdaptiveBudgetPolicy()
        budgets = {0: 7, 1: 7, 2: 7}
        novel = {0: 2, 1: 2, 2: 2}
        assert policy.rebalance(budgets, novel) == policy.rebalance(
            budgets, novel
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CampaignError):
            AdaptiveBudgetPolicy(min_budget=-1)
        with pytest.raises(CampaignError):
            AdaptiveBudgetPolicy(smoothing=0.0)


class TestPolicyRegistry:
    def test_builtin_policies_resolve(self):
        assert isinstance(budget_policy_from_name("even"), EvenBudgetPolicy)
        assert isinstance(budget_policy_from_name("adaptive"),
                          AdaptiveBudgetPolicy)
        assert {"even", "adaptive"} <= set(registered_budget_policies())

    def test_unknown_policy_rejected(self):
        with pytest.raises(CampaignError, match="unknown budget policy"):
            budget_policy_from_name("psychic")

    def test_third_party_registration(self):
        class GreedyPolicy(EvenBudgetPolicy):
            name = "greedy"

        register_budget_policy("greedy", GreedyPolicy)
        try:
            assert isinstance(budget_policy_from_name("greedy"), GreedyPolicy)
        finally:
            _POLICY_FACTORIES.pop("greedy", None)


# ------------------------------------------------- coordinator budget decisions


class TestCoordinatorBudgets:
    def entry(self, label):
        return ([0.0, 1.0], label)

    def test_novelty_credited_in_shard_order_and_budgets_broadcast(self):
        coordinator = CentralCoordinator(
            prune=True,
            budget_policy=AdaptiveBudgetPolicy(),
            initial_budgets={0: 5, 1: 5},
        )
        # Both ship L1; shard 0 (lower id) gets the novelty credit.  Shard 0
        # also ships a second novel label.
        broadcasts = coordinator.complete_round(
            {0: [self.entry("L1"), self.entry("L2")], 1: [self.entry("L1")]}
        )
        assert broadcasts[0].next_budget is not None
        assert broadcasts[1].next_budget is not None
        assert broadcasts[0].next_budget + broadcasts[1].next_budget == 10
        assert broadcasts[0].next_budget >= broadcasts[1].next_budget

    def test_no_policy_means_no_budget_broadcast(self):
        coordinator = CentralCoordinator(prune=True)
        broadcasts = coordinator.complete_round(
            {0: [self.entry("L1")], 1: [self.entry("L2")]}
        )
        assert broadcasts[0].next_budget is None
        assert broadcasts[1].next_budget is None


class TestCoordinatorEviction:
    def entry(self, label):
        return ([0.0, 1.0], label)

    def test_eviction_conserves_total_without_a_policy(self):
        coordinator = CentralCoordinator(
            prune=True, initial_budgets={0: 4, 1: 4, 2: 4}
        )
        coordinator.evict(1)
        assert coordinator.budgets == {0: 6, 2: 6}
        # Even without a policy, the next round's broadcasts must carry the
        # redistributed allocation to the survivors exactly once.
        first = coordinator.complete_round(
            {0: [self.entry("L1")], 2: [self.entry("L2")]}
        )
        assert first[0].next_budget == 6
        assert first[2].next_budget == 6
        second = coordinator.complete_round({0: [], 2: []})
        assert second[0].next_budget is None
        assert second[2].next_budget is None

    def test_eviction_conserves_total_under_adaptive_policy(self):
        coordinator = CentralCoordinator(
            prune=True,
            budget_policy=AdaptiveBudgetPolicy(),
            initial_budgets={0: 6, 1: 6, 2: 6},
        )
        coordinator.evict(0)
        assert sum(coordinator.budgets.values()) == 18
        broadcasts = coordinator.complete_round(
            {1: [self.entry("L1")], 2: []}
        )
        assert broadcasts[1].next_budget + broadcasts[2].next_budget == 18

    def test_eviction_drops_the_workers_novelty_bookkeeping(self):
        coordinator = CentralCoordinator(prune=True, initial_budgets={0: 2, 1: 2})
        coordinator.complete_round({0: [self.entry("L1")], 1: []})
        assert coordinator.known_labels(0)
        coordinator.evict(0)
        assert 0 not in coordinator._known
        assert coordinator.budgets == {1: 4}

    def test_evicting_an_unbudgeted_shard_is_harmless(self):
        coordinator = CentralCoordinator(prune=True, initial_budgets={0: 4})
        coordinator.evict(7)
        assert coordinator.budgets == {0: 4}
        broadcasts = coordinator.complete_round({0: []})
        assert broadcasts[0].next_budget is None


# ------------------------------------------------------------ end-to-end pool


FAST = CampaignConfig(dataset="shopping", dataset_rows=90, hours=4,
                      queries_per_hour=8, seed=71)


def run_pool(**options):
    """A 2-worker TQS pool over FAST with the given pool options."""
    return run_parallel_shards(build_shard_specs("tqs", FAST, 2),
                               ParallelCampaignConfig(**options))


class TestAdaptiveParallelCampaign:
    def run_pool(self):
        return run_pool(sync_interval=1, worker_timeout=120.0,
                        budget_policy="adaptive")

    def test_adaptive_campaign_is_deterministic(self):
        first = self.run_pool()
        second = self.run_pool()
        assert first.merged.samples == second.merged.samples
        assert ([s.hourly_budgets for s in first.sync_stats]
                == [s.hourly_budgets for s in second.sync_stats])

    def test_budget_series_conserve_hourly_total(self):
        outcome = self.run_pool()
        assert outcome.budget_policy == "adaptive"
        series = [stats.hourly_budgets for stats in outcome.sync_stats]
        assert all(len(budgets) == FAST.hours for budgets in series)
        for hour_index in range(FAST.hours):
            assert (sum(budgets[hour_index] for budgets in series)
                    == FAST.queries_per_hour)
        # Budget identity survives rebalancing: every inner-loop iteration is
        # still accounted as a success or a rejection.
        merged = outcome.merged.final
        assert (merged.queries_generated + merged.generations_rejected
                == FAST.hours * FAST.queries_per_hour)

    def test_budget_series_surface_in_campaign_json(self):
        outcome = self.run_pool()
        payload = parallel_result_to_dict(outcome)
        assert payload["summary"]["budget_policy"] == "adaptive"
        for shard in payload["summary"]["shards"]:
            assert len(shard["hourly_budgets"]) == FAST.hours

    def test_even_policy_keeps_static_budgets(self):
        outcome = run_pool(sync_interval=1, worker_timeout=120.0)
        assert outcome.budget_policy == "even"
        for stats in outcome.sync_stats:
            assert len(set(stats.hourly_budgets)) == 1

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(CampaignError, match="unknown budget policy"):
            run_pool(budget_policy="psychic")
