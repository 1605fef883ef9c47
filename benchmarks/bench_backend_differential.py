"""Differential campaign throughput against a real DBMS backend (SQLite).

Unlike the simulated campaigns (which execute every hinted variant of a query
in-process), the differential campaign pays for real SQL rendering, a real
engine round-trip and the cross-engine result comparison per query.  This
benchmark measures that end-to-end cost and reports the same per-hour series
the paper-style campaigns produce, plus the sanity property that makes the
numbers meaningful: a correct backend yields zero mismatches.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    DSG,
    Engine,
    CampaignConfig,
    CampaignResult,
    SQLiteBackend,
    obs,
    run_campaign,
)
from repro.analysis import render_differential_summary
from repro.core import build_differential_tester, run_campaign_loop


@pytest.mark.benchmark(group="backend-differential")
def test_backend_differential_sqlite(benchmark, campaign_spec_factory):
    """24 simulated hours of TQS-generated queries against stdlib SQLite."""
    spec = campaign_spec_factory(hours=24, queries_per_hour=6,
                                 dataset="shopping", seed=5,
                                 kind="differential", backend="sqlite")

    def run():
        obs.reset_registry()
        start = time.perf_counter()
        campaign = run_campaign(spec)
        return campaign, time.perf_counter() - start

    result, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(render_differential_summary(result))
    print()
    print(obs.render_phase_breakdown(obs.get_registry().snapshot(),
                                     wall_seconds=wall))
    assert result.final.queries_executed > 0
    assert result.final.bug_count == 0, "false positives against bug-free SQLite"


@pytest.mark.benchmark(group="backend-differential")
def test_backend_differential_simulated_mysql(benchmark, campaign_spec_factory):
    """The same loop against the seeded-fault SimMySQL via the adapter layer.

    This is the sensitivity baseline for the SQLite run above: identical
    generator budget, but a backend that is *supposed* to disagree.
    """
    spec = campaign_spec_factory(hours=24, queries_per_hour=6,
                                 dataset="shopping", seed=5,
                                 kind="differential", backend="sim:SimMySQL")
    result = benchmark.pedantic(lambda: run_campaign(spec), rounds=1,
                                iterations=1)

    print()
    print(render_differential_summary(result))
    assert result.final.bug_count > 0, "seeded faults must be visible differentially"


# ------------------------------------------------------- telemetry overhead


class _LatencySQLiteBackend(SQLiteBackend):
    """SQLite with a fixed per-query latency, modelling a networked engine.

    An in-memory SQLite round trip is microseconds, which under-represents a
    real client/server target (MySQL, Postgres) where each execute pays
    network and protocol latency.  The added sleep makes the workload
    I/O-bound the way a real differential campaign is.
    """

    def __init__(self, delay_seconds: float) -> None:
        super().__init__()
        self.delay_seconds = delay_seconds

    def execute(self, query):
        time.sleep(self.delay_seconds)
        return super().execute(query)


class _LatencyReferenceEngine(Engine):
    """The reference executor with the same per-query latency model."""

    def __init__(self, database, delay_seconds: float) -> None:
        super().__init__(database)
        self.delay_seconds = delay_seconds

    def execute(self, query, hints=None):
        time.sleep(self.delay_seconds)
        return super().execute(query, hints)


@pytest.mark.benchmark(group="backend-differential-telemetry")
def test_telemetry_overhead_under_five_percent(benchmark):
    """Phase spans and counters must not tax the differential campaign.

    Runs the same latency-padded workload with telemetry enabled
    and disabled — alternating off/on pairs and keeping each side's best
    time, so scheduler noise and thermal drift hit both sides equally — and
    asserts the enabled path is within 5% of the disabled one: the
    zero-cost-enough contract the observability layer promises.
    """
    delay = 0.020
    config = CampaignConfig(dataset="shopping", dataset_rows=90, hours=2,
                            queries_per_hour=16, seed=5)

    def run_once():
        reference = _LatencyReferenceEngine(DSG(config.dsg_config()).database,
                                            delay)
        tester = build_differential_tester(_LatencySQLiteBackend(delay), config,
                                           reference=reference)
        result = CampaignResult(tool="TQS-differential",
                                dbms=tester.backend.name,
                                dataset=config.dataset)
        start = time.perf_counter()
        try:
            result = run_campaign_loop(tester, result, config.hours,
                                       config.queries_per_hour)
        finally:
            tester.close()
        return result, time.perf_counter() - start

    def timed(enabled):
        previous = obs.set_enabled(enabled)
        try:
            obs.reset_registry()
            return run_once()
        finally:
            obs.set_enabled(previous)

    def measure():
        off_result, off_best = timed(False)
        on_result, on_best = timed(True)
        for _ in range(3):
            off_best = min(off_best, timed(False)[1])
            on_best = min(on_best, timed(True)[1])
        return off_result, off_best, on_result, on_best

    off_result, off_seconds, on_result, on_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    overhead = on_seconds / off_seconds - 1.0
    print()
    print(f"telemetry off {off_seconds:.3f}s vs on {on_seconds:.3f}s "
          f"-> {overhead * 100.0:+.2f}% overhead")
    assert on_result.samples == off_result.samples, (
        "telemetry must not change campaign verdicts"
    )
    assert overhead < 0.05, (
        f"telemetry overhead {overhead * 100.0:.2f}% exceeds the 5% budget"
    )
