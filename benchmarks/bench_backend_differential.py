"""Differential campaign throughput against a real DBMS backend (SQLite).

Unlike the simulated campaigns (which execute every hinted variant of a query
in-process), the differential campaign pays for real SQL rendering, a real
engine round-trip and the cross-engine result comparison per query.  This
benchmark measures that end-to-end cost and reports the same per-hour series
the paper-style campaigns produce, plus the sanity property that makes the
numbers meaningful: a correct backend yields zero mismatches.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import (
    DSG,
    Engine,
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    PipelineConfig,
    QueryCache,
    SIM_MYSQL,
    SimulatedBackend,
    SQLiteBackend,
    obs,
    run_campaign,
    run_differential_campaign,
)
from repro.analysis import render_differential_summary
from repro.core import build_differential_tester, run_campaign_loop


@pytest.mark.benchmark(group="backend-differential")
def test_backend_differential_sqlite(benchmark, campaign_config_factory):
    """24 simulated hours of TQS-generated queries against stdlib SQLite."""
    config = campaign_config_factory(hours=24, queries_per_hour=6,
                                     dataset="shopping", seed=5)

    def run():
        obs.reset_registry()
        start = time.perf_counter()
        campaign = run_differential_campaign(SQLiteBackend(), config)
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
def test_backend_differential_simulated_mysql(benchmark, campaign_config_factory):
    """The same loop against the seeded-fault SimMySQL via the adapter layer.

    This is the sensitivity baseline for the SQLite run above: identical
    generator budget, but a backend that is *supposed* to disagree.
    """
    config = campaign_config_factory(hours=24, queries_per_hour=6,
                                     dataset="shopping", seed=5)

    def run():
        return run_differential_campaign(SimulatedBackend(SIM_MYSQL), config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(render_differential_summary(result))
    assert result.final.bug_count > 0, "seeded faults must be visible differentially"


# ------------------------------------------------- pipelined execution overlap


class _LatencySQLiteBackend(SQLiteBackend):
    """SQLite with a fixed per-query latency, modelling a networked engine.

    An in-memory SQLite round trip is microseconds, which under-represents a
    real client/server target (MySQL, Postgres) where each execute pays
    network and protocol latency.  The added sleep makes the workload
    I/O-bound the way a real differential campaign is — exactly the regime
    the overlapped pipeline exists for.
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


@pytest.mark.benchmark(group="backend-differential-pipeline")
def test_pipeline_overlap_speedup(benchmark):
    """Overlapped pipeline vs serial path on an I/O-bound target: >= 1.5x.

    Both sides carry a 20 ms per-query latency.  The serial path pays
    target + reference per query; the pipeline overlaps them, so the floor of
    the expected speedup is ~2x minus compare/generation time.  Verdict
    equality with the serial path is asserted alongside the throughput gain —
    speed must not buy different results.
    """
    delay = 0.020
    # A fixed workload, deliberately not TQS_BENCH_SCALE-scaled: this is a
    # property measurement (overlap factor on an I/O-bound target).  Tester
    # construction (DSG build, deploy) happens *outside* the timed region —
    # the pipeline overlaps execution, and execution is what is measured.
    config = CampaignConfig(dataset="shopping", dataset_rows=90, hours=3,
                            queries_per_hour=24, seed=5)

    def build_tester(pipeline):
        reference = _LatencyReferenceEngine(DSG(config.dsg_config()).database,
                                            delay)
        return build_differential_tester(_LatencySQLiteBackend(delay), config,
                                         reference=reference,
                                         pipeline=pipeline)

    def run_loop(tester):
        result = CampaignResult(tool="TQS-differential",
                                dbms=tester.backend.name,
                                dataset=config.dataset)
        try:
            return run_campaign_loop(tester, result, config.hours,
                                     config.queries_per_hour)
        finally:
            tester.close()

    serial_tester = build_tester(None)
    start = time.perf_counter()
    serial_result = run_loop(serial_tester)
    serial_seconds = time.perf_counter() - start

    pipelined_tester = build_tester(PipelineConfig(batch_size=8))

    def run_pipelined():
        return run_loop(pipelined_tester)

    start = time.perf_counter()
    pipelined_result = benchmark.pedantic(run_pipelined, rounds=1, iterations=1)
    pipelined_seconds = time.perf_counter() - start

    speedup = serial_seconds / pipelined_seconds
    print()
    print(f"serial {serial_seconds:.3f}s vs pipelined (batch=8) "
          f"{pipelined_seconds:.3f}s -> {speedup:.2f}x overlap speedup")
    assert serial_result.samples == pipelined_result.samples, (
        "pipelined campaign must be bit-identical to the serial path"
    )
    assert speedup >= 1.5, (
        f"expected >= 1.5x overlap speedup on an I/O-bound target, "
        f"got {speedup:.2f}x"
    )


@pytest.mark.benchmark(group="backend-differential-pipeline")
def test_telemetry_overhead_under_five_percent(benchmark):
    """Phase spans and counters must not tax the pipelined campaign.

    Runs the same latency-padded pipelined workload with telemetry enabled
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
                                           reference=reference,
                                           pipeline=PipelineConfig(batch_size=8))
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


# ------------------------------------------ vectorized executor + query cache


def _reference_phase(snapshot) -> tuple:
    """``(seconds, span count)`` of the ``execute.reference`` phase in *snapshot*."""
    return snapshot.phase_seconds().get("execute.reference", (0.0, 0))


def _campaign_fingerprint(result) -> tuple:
    """Everything a verdict-equality assertion should compare."""
    assert result.bug_log is not None
    return (
        tuple(result.samples),
        tuple(incident.query_sql for incident in result.bug_log.incidents),
    )


@pytest.mark.benchmark(group="backend-differential-cache")
def test_query_cache_reference_speedup(benchmark):
    """Query cache >= 2x on ``execute.reference``, row executor on both sides.

    The workload is three *identical* campaigns back to back — a repeat
    campaign (rerun benches, re-sharded seeds) is exactly what the
    content-addressed cache exists for.  The baseline pays the row
    interpreter three times; the candidate pays it once and serves the other
    two runs from the cache, so it must run exactly a third of the baseline's
    ``execute.reference`` spans, and the expected time ratio is 3x against
    the 2x gate.  Speedup is compared on the ``execute.reference`` phase
    itself (``phase.seconds``), the share the ROADMAP names as the dominant
    cost, and verdicts must be bit-identical.

    Set ``TQS_BENCH_ARTIFACT`` to a path to dump the before/after phase
    breakdown (the CI bench smoke uploads it).
    """
    config = CampaignConfig(dataset="shopping", dataset_rows=110, hours=6,
                            queries_per_hour=20, seed=5)
    campaigns = 3

    def drive(cache):
        tester = build_differential_tester(SQLiteBackend(), config,
                                           query_cache=cache)
        result = CampaignResult(tool="TQS-differential",
                                dbms=tester.backend.name,
                                dataset=config.dataset)
        try:
            return run_campaign_loop(tester, result, config.hours,
                                     config.queries_per_hour)
        finally:
            tester.close()

    def measure(with_cache):
        obs.reset_registry()
        cache = QueryCache() if with_cache else None
        results = [drive(cache) for _ in range(campaigns)]
        return results, obs.get_registry().snapshot()

    baseline_results, baseline_snapshot = measure(False)

    def run_candidate():
        return measure(True)

    candidate_results, candidate_snapshot = benchmark.pedantic(
        run_candidate, rounds=1, iterations=1
    )

    for base, cand in zip(baseline_results, candidate_results):
        assert _campaign_fingerprint(base) == _campaign_fingerprint(cand), (
            "cached campaign must be bit-identical to the uncached baseline"
        )

    baseline_ref, baseline_runs = _reference_phase(baseline_snapshot)
    candidate_ref, candidate_runs = _reference_phase(candidate_snapshot)
    speedup = baseline_ref / max(candidate_ref, 1e-9)
    before = obs.render_phase_breakdown(baseline_snapshot)
    after = obs.render_phase_breakdown(candidate_snapshot)
    print()
    print(f"--- no cache ({campaigns} identical campaigns) ---")
    print(before)
    print("--- shared query cache ---")
    print(after)
    print(f"execute.reference: {baseline_ref:.3f}s -> {candidate_ref:.3f}s "
          f"({speedup:.2f}x)")

    artifact = os.environ.get("TQS_BENCH_ARTIFACT", "")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            handle.write(f"no cache ({campaigns} identical campaigns)\n")
            handle.write(before + "\n\n")
            handle.write("shared query cache\n")
            handle.write(after + "\n\n")
            handle.write(f"execute.reference speedup: {speedup:.2f}x "
                         f"({baseline_ref:.3f}s -> {candidate_ref:.3f}s)\n")

    assert candidate_runs * campaigns == baseline_runs, (
        f"the cache must serve every repeat campaign: {candidate_runs} "
        f"reference executions with it, {baseline_runs} without"
    )
    assert speedup >= 2.0, (
        f"expected >= 2x on execute.reference from the query cache, "
        f"got {speedup:.2f}x"
    )


@pytest.mark.benchmark(group="backend-differential-cache")
def test_query_cache_verdicts_serial_and_pooled(benchmark):
    """No cache == query cache, on the serial path AND the 2-worker pool.

    The speedup test above covers the serial repeat-campaign case; this one
    pins the determinism contract on the multiprocessing pool, where each
    shard builds its own per-shard cache from the wire-shipped
    :class:`CampaignConfig`.
    """
    base = dict(kind="differential", backend="sqlite", dataset_rows=80,
                hours=2, queries_per_hour=16, seed=7)

    def run_all():
        serial = run_campaign(CampaignSpec(**base))
        serial_cached = run_campaign(CampaignSpec(**base, use_query_cache=True))
        pooled = run_campaign(CampaignSpec(**base, workers=2))
        pooled_cached = run_campaign(
            CampaignSpec(**base, use_query_cache=True, workers=2))
        return serial, serial_cached, pooled, pooled_cached

    serial, serial_cached, pooled, pooled_cached = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    assert _campaign_fingerprint(serial) == _campaign_fingerprint(serial_cached), (
        "serial verdicts must not depend on the cache"
    )
    assert _campaign_fingerprint(pooled.merged) == _campaign_fingerprint(
        pooled_cached.merged
    ), "pooled verdicts must not depend on the cache"
    print()
    print(f"serial: {serial.final.queries_executed} comparisons, "
          f"pooled: {pooled.merged.final.queries_executed} comparisons — "
          "verdicts identical with and without the cache")
