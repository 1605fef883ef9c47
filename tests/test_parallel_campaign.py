"""Tests for the real multi-process parallel campaign runner."""

import pytest

from repro.core import (
    BugIncident,
    BugLog,
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    HourlySample,
    ParallelCampaignConfig,
    WorkerReport,
    build_shard_specs,
    derive_worker_seed,
    merge_worker_reports,
    run_campaign,
    run_campaign_loop,
    run_parallel_shards,
    shard_campaign_configs,
)
from repro.errors import CampaignError, GenerationError
from repro.kqe.isomorphism import IsomorphicSetCounter

FAST_SPEC = CampaignSpec(dataset="shopping", dataset_rows=90, hours=3,
                         queries_per_hour=6, seed=71)
FAST = FAST_SPEC.campaign_config()
POOL = ParallelCampaignConfig(workers=2, sync_interval=1, worker_timeout=120.0)


def run_pool(parallel=POOL):
    """FAST as a TQS campaign sharded over ``parallel.workers`` processes."""
    shards = build_shard_specs("tqs", FAST, parallel.workers)
    return run_parallel_shards(shards, parallel)


def incident(bug_ids=(1,), label="L1", dbms="SimMySQL"):
    return BugIncident(
        dbms=dbms, query_sql="SELECT 1", hint_name="default",
        detection_mode="ground_truth", query_canonical_label=label,
        fired_bug_ids=tuple(bug_ids), expected_rows=1, observed_rows=0,
    )


class TestSeedDerivation:
    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_worker_seed(5, shard) for shard in range(8)]
        assert seeds == [derive_worker_seed(5, shard) for shard in range(8)]
        assert len(set(seeds)) == len(seeds)

    def test_neighbouring_campaign_seeds_do_not_collide(self):
        # shard 1 of seed 5 must not equal shard 0 of seed 6 (the failure mode
        # of additive seeding).
        assert derive_worker_seed(5, 1) != derive_worker_seed(6, 0)

    def test_shard_configs_split_budget_and_keep_hours(self):
        shards = shard_campaign_configs(FAST, 4)
        assert len(shards) == 4
        assert sum(s.queries_per_hour for s in shards) == FAST.queries_per_hour
        assert all(s.hours == FAST.hours for s in shards)
        assert len({s.seed for s in shards}) == 4

    def test_single_worker_keeps_the_campaign_seed(self):
        # Required for serial == 1-worker-pool equivalence.
        shards = shard_campaign_configs(FAST, 1)
        assert len(shards) == 1
        assert shards[0] == FAST

    def test_pool_clamped_so_no_shard_is_budgetless(self):
        # 8 workers for 4 queries/hour would leave 4 shards paying a full DSG
        # build and every sync barrier for nothing; the pool clamps instead.
        small = CampaignConfig(dataset="shopping", dataset_rows=90, hours=2,
                               queries_per_hour=4, seed=71)
        shards = shard_campaign_configs(small, 8)
        assert len(shards) == 4
        assert all(s.queries_per_hour == 1 for s in shards)
        # Degenerate zero-budget campaigns still produce exactly one shard.
        empty = CampaignConfig(dataset="shopping", dataset_rows=90, hours=2,
                               queries_per_hour=0, seed=71)
        assert len(shard_campaign_configs(empty, 4)) == 1

    def test_zero_workers_rejected(self):
        with pytest.raises(CampaignError):
            shard_campaign_configs(FAST, 0)


class TestRealWorkerPool:
    def test_same_seed_same_shard_count_is_deterministic(self):
        """Same campaign seed and shard count -> identical merged outcome."""
        first = run_pool()
        second = run_pool()
        assert first.merged.samples == second.merged.samples
        assert first.merged.bug_log is not None and second.merged.bug_log is not None
        assert (set(first.merged.bug_log._bug_keys)
                == set(second.merged.bug_log._bug_keys))
        assert first.central_index_size == second.central_index_size
        assert first.central_distinct_labels == second.central_distinct_labels

    def test_one_worker_pool_equals_serial_runner(self):
        """A 1-worker pool on the same config must equal the serial loop."""
        serial = run_campaign(FAST_SPEC)
        pool = run_pool(ParallelCampaignConfig(workers=1, sync_interval=1,
                                               worker_timeout=120.0))
        assert pool.merged.samples == serial.samples
        assert serial.bug_log is not None and pool.merged.bug_log is not None
        assert pool.merged.bug_log._bug_keys == serial.bug_log._bug_keys

    def test_merged_series_keep_the_hourly_contract(self):
        outcome = run_pool()
        merged = outcome.merged
        assert [s.hour for s in merged.samples] == list(range(1, FAST.hours + 1))
        for metric in ("queries_generated", "isomorphic_sets", "bug_count",
                       "bug_type_count", "generations_rejected"):
            series = merged.series(metric)
            assert all(b >= a for a, b in zip(series, series[1:])), metric
        # The sharded pool spends exactly the serial campaign's budget: every
        # inner-loop iteration is accounted as a success or a rejection, and
        # the shard budgets sum to the campaign budget.
        assert (merged.final.queries_generated
                + merged.final.generations_rejected
                == FAST.hours * FAST.queries_per_hour)
        assert outcome.workers == 2
        assert outcome.sync_rounds == FAST.hours - 1
        assert outcome.central_index_size == merged.final.queries_generated


class TestMergeWorkerReports:
    def make_report(self, shard_id, labels, incidents):
        samples = [
            HourlySample(hour=h + 1, queries_generated=2 * (h + 1),
                         queries_executed=4 * (h + 1),
                         isomorphic_sets=len({lab for hour in labels[:h + 1]
                                              for lab in hour}),
                         bug_count=0, bug_type_count=0)
            for h in range(len(labels))
        ]
        return WorkerReport(shard_id=shard_id, tool="TQS", dbms="SimMySQL",
                            dataset="shopping", samples=samples,
                            hourly_new_labels=labels,
                            hourly_incidents=incidents)

    def test_cross_worker_bug_and_label_dedup(self):
        # Both workers find the same (root cause, structure) pair: the merged
        # log must count one bug, and the shared label one isomorphic set.
        left = self.make_report(0, [["A"], ["B"]], [[incident((1,), "A")], []])
        right = self.make_report(1, [["A"], ["C"]], [[], [incident((1,), "A")]])
        merged, shards = merge_worker_reports([right, left])
        assert len(shards) == 2
        assert merged.series("isomorphic_sets") == [1, 3]
        assert merged.final.bug_count == 1
        assert merged.final.bug_type_count == 1
        assert merged.final.queries_generated == 8
        assert merged.final.queries_executed == 16

    def test_mismatched_hours_rejected(self):
        left = self.make_report(0, [["A"]], [[]])
        right = self.make_report(1, [["A"], ["B"]], [[], []])
        with pytest.raises(CampaignError):
            merge_worker_reports([left, right])

    def test_empty_reports_rejected(self):
        with pytest.raises(CampaignError):
            merge_worker_reports([])

    def test_buglog_merge_dedups(self):
        first = BugLog()
        first.record(incident((1,), "A"))
        second = BugLog()
        second.record(incident((1,), "A"))
        second.record(incident((2,), "B"))
        new = first.merge(second)
        assert new == 1
        assert first.bug_count == 2
        assert len(first.incidents) == 3


class _FlakyTester:
    """A tester whose generator dead-ends on every other attempt."""

    def __init__(self):
        self.queries_generated = 0
        self.queries_executed = 0
        self.bug_log = BugLog()
        self.diversity = IsomorphicSetCounter()
        self._calls = 0

    @property
    def explored_isomorphic_sets(self):
        return self.diversity.distinct_sets

    def run_iteration(self):
        self._calls += 1
        if self._calls % 2 == 0:
            raise GenerationError("dead end")
        self.queries_generated += 1
        self.queries_executed += 1
        self.diversity.add_label(f"L{self._calls}")


class _DeadProcess:
    name = "tqs-shard-1"

    @staticmethod
    def is_alive():
        return False


class _LiveProcess:
    name = "tqs-shard-0"

    @staticmethod
    def is_alive():
        return True


class TestDeadWorkerDetection:
    def test_receive_fails_fast_on_a_dead_pending_worker(self):
        """A hard-killed worker must fail the pool even while peers tick."""
        import queue

        from repro.core.parallel import _receive

        silent = queue.Queue()
        dead = _DeadProcess()
        with pytest.raises(CampaignError, match="died without reporting"):
            _receive(silent, [_LiveProcess(), dead], timeout=60.0,
                     pending=lambda: [dead])

    def test_receive_tolerates_dead_but_reported_workers(self):
        """A worker that exited AFTER reporting is not owed anything."""
        import queue

        from repro.core.parallel import _receive

        ready = queue.Queue()
        ready.put(("done", 0, "report"))
        message = _receive(ready, [_LiveProcess(), _DeadProcess()],
                           timeout=60.0, pending=lambda: [_LiveProcess()])
        assert message == ("done", 0, "report")


class TestRejectedGenerationAccounting:
    def test_rejections_are_counted_not_swallowed(self):
        tester = _FlakyTester()
        result = CampaignResult(tool="stub", dbms="stub", dataset="stub")
        run_campaign_loop(tester, result, hours=2, queries_per_hour=4)
        assert result.series("generations_rejected") == [2, 4]
        assert result.generations_rejected == 4
        assert result.final.queries_generated == 4
        # Budget identity: successes + rejections == spent budget.
        assert (result.final.queries_generated
                + result.final.generations_rejected) == 8

    def test_real_campaign_surfaces_rejections_field(self):
        result = run_campaign(FAST_SPEC)
        assert result.final.generations_rejected >= 0
        assert (result.final.queries_generated
                + result.final.generations_rejected
                == FAST.hours * FAST.queries_per_hour)
