"""Shared configuration for the benchmark harness.

Every benchmark simulates the paper's 24-hour campaigns with a per-hour query
budget.  The budget scales with the ``TQS_BENCH_SCALE`` environment variable
(default 1.0): raise it for longer, higher-fidelity runs, lower it for a quick
smoke pass.  Shapes of the reported tables/series are stable across scales; only
absolute magnitudes change.
"""

from __future__ import annotations

import os

import pytest

from repro.core import CampaignSpec


def bench_scale() -> float:
    """The global benchmark scale factor."""
    try:
        return max(0.1, float(os.environ.get("TQS_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer budget by the global factor."""
    return max(minimum, int(round(value * bench_scale())))


@pytest.fixture(scope="session")
def campaign_spec_factory():
    """Factory for campaign specs with the benchmark's default budgets."""

    def make(hours: int = 24, queries_per_hour: int = 6, dataset: str = "shopping",
             **overrides) -> CampaignSpec:
        return CampaignSpec(
            dataset=dataset,
            dataset_rows=scaled(110, minimum=60),
            hours=hours,
            queries_per_hour=scaled(queries_per_hour),
            seed=overrides.pop("seed", 5),
            **overrides,
        )

    return make
