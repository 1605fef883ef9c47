"""TQS core: the testing loop, bug logs, reduction, campaigns and the worker pool.

The worker-pool names of :mod:`repro.core.parallel` are exported lazily
(:func:`__getattr__`), so that ``python -m repro.core.parallel`` does not
find the module already imported by its own package.
"""

from typing import Any

from repro.core.budget import (
    AdaptiveBudgetPolicy,
    BudgetPolicy,
    EvenBudgetPolicy,
    budget_policy_from_name,
    register_budget_policy,
    registered_budget_policies,
    split_budget,
)
from repro.core.bug_report import BugIncident, BugLog
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    HourRecord,
    HourlySample,
    build_baseline_tester,
    build_campaign_tester,
    build_differential_tester,
    build_tqs_tester,
    run_ablation,
    run_campaign,
    run_campaign_loop,
    tqs_variant_name,
)
from repro.core.differential import (
    DifferentialConfig,
    DifferentialOracle,
    DifferentialOutcome,
    DifferentialTester,
    result_sets_match,
)
from repro.core.reduction import QueryReducer
from repro.core.tqs import TQS, IterationOutcome, TQSConfig

__all__ = [
    "AdaptiveBudgetPolicy",
    "BudgetPolicy",
    "BugIncident",
    "BugLog",
    "CampaignConfig",
    "CampaignResult",
    "CampaignSpec",
    "DifferentialConfig",
    "DifferentialOracle",
    "DifferentialOutcome",
    "DifferentialTester",
    "EvenBudgetPolicy",
    "HourRecord",
    "HourlySample",
    "IterationOutcome",
    "ParallelCampaignConfig",
    "ParallelCampaignResult",
    "QueryReducer",
    "ShardSpec",
    "ShardSyncStats",
    "SyncTransport",
    "TQS",
    "TQSConfig",
    "WorkerReport",
    "budget_policy_from_name",
    "build_baseline_tester",
    "build_campaign_tester",
    "build_differential_tester",
    "build_shard_specs",
    "build_tqs_tester",
    "derive_worker_seed",
    "register_budget_policy",
    "registered_budget_policies",
    "split_budget",
    "finalize_parallel_result",
    "merge_worker_reports",
    "result_sets_match",
    "run_ablation",
    "run_campaign",
    "run_campaign_loop",
    "run_parallel_shards",
    "run_shard_with_heartbeat",
    "run_shard_with_transport",
    "shard_campaign_configs",
    "sync_schedule",
    "tqs_variant_name",
]

#: Names :func:`__getattr__` imports from :mod:`repro.core.parallel` on use.
_PARALLEL_EXPORTS = frozenset({
    "ParallelCampaignConfig",
    "ParallelCampaignResult",
    "ShardSpec",
    "ShardSyncStats",
    "SyncTransport",
    "WorkerReport",
    "build_shard_specs",
    "derive_worker_seed",
    "finalize_parallel_result",
    "merge_worker_reports",
    "run_parallel_shards",
    "run_shard_with_heartbeat",
    "run_shard_with_transport",
    "shard_campaign_configs",
    "sync_schedule",
})


def __getattr__(name: str) -> Any:
    if name in _PARALLEL_EXPORTS:
        from repro.core import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
