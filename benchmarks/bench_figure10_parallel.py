"""Figure 10: effect of parallel search on query generation throughput.

Paper result: with the KQE graph index hosted on a central server, adding DSG
clients (1 to 5) increases the number of queries generated in 24 hours from
~400k to ~1.75M -- close to linear, slightly damped by index synchronization.

Reproduction target: the real multi-process worker pool completes a fixed
campaign budget faster than the serial runner, while the merged per-hour
series keep the serial contract.  The >= 2.5x wall-clock criterion is asserted
when the machine actually has >= 4 CPU cores — on fewer cores the pool cannot
beat physics, so the benchmark still reports the measured speedup but only
asserts correctness.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import render_table, render_worker_pool
from repro.core import (
    CampaignSpec,
    ParallelCampaignConfig,
    build_shard_specs,
    run_campaign,
    run_parallel_shards,
)
from benchmarks.conftest import scaled


@pytest.mark.benchmark(group="figure10")
def test_figure10_real_worker_pool(benchmark):
    """Serial runner vs a real 4-process pool on one fixed campaign budget."""
    workers = 4
    spec = CampaignSpec(
        dataset="shopping",
        dataset_rows=scaled(100, 60),
        hours=4,
        queries_per_hour=scaled(32, minimum=workers),
        seed=41,
    )
    config = spec.campaign_config()

    # Time the serial baseline outside the benchmarked callable so the
    # recorded figure10 stat measures the pool alone, not serial + pool.
    start = time.perf_counter()
    serial = run_campaign(spec)
    serial_elapsed = time.perf_counter() - start

    pool = benchmark.pedantic(
        lambda: run_parallel_shards(
            build_shard_specs("tqs", config, workers),
            ParallelCampaignConfig(sync_interval=1, worker_timeout=300.0),
        ),
        rounds=1, iterations=1,
    )

    merged = pool.merged
    speedup = serial_elapsed / max(pool.elapsed_seconds, 1e-9)
    print()
    print(render_worker_pool(pool))
    if pool.telemetry is not None:
        from repro import obs

        print()
        print(obs.render_phase_breakdown(
            obs.MetricsSnapshot.from_dict(pool.telemetry)))
    print()
    print(render_table(
        ["runner", "wall clock (s)", "queries", "isomorphic sets", "bugs",
         "queries/s"],
        [
            ["serial", f"{serial_elapsed:.2f}", serial.final.queries_generated,
             serial.final.isomorphic_sets, serial.final.bug_count,
             f"{serial.final.queries_generated / max(serial_elapsed, 1e-9):.1f}"],
            [f"pool ({workers} procs)", f"{pool.elapsed_seconds:.2f}",
             merged.final.queries_generated, merged.final.isomorphic_sets,
             merged.final.bug_count, f"{pool.queries_per_second:.1f}"],
        ],
        title=f"Figure 10 (real): serial vs {workers}-process pool, "
              f"speedup {speedup:.2f}x on {os.cpu_count()} cores",
    ))

    # Correctness of the merged campaign, independent of core count.
    assert [s.hour for s in merged.samples] == list(range(1, config.hours + 1))
    for metric in ("queries_generated", "isomorphic_sets", "bug_count",
                   "bug_type_count"):
        series = merged.series(metric)
        assert all(later >= earlier
                   for earlier, later in zip(series, series[1:])), metric
    assert (merged.final.queries_generated + merged.final.generations_rejected
            == config.hours * config.queries_per_hour)
    assert merged.final.bug_count > 0, "the pool must still find seeded bugs"

    cores = os.cpu_count() or 1
    # The wall-clock criterion needs both the hardware (>= 4 real cores) and a
    # budget large enough that process spawns and sync barriers amortize: at
    # small TQS_BENCH_SCALE the shards get a handful of queries per hour and
    # overhead dominates, so a miss there says nothing about the pool.
    full_budget = config.queries_per_hour >= 6 * workers
    if cores >= workers and full_budget:
        assert speedup >= 2.5, (
            f"a {workers}-process pool on {cores} cores should finish the "
            f"fixed budget >= 2.5x faster than serial, got {speedup:.2f}x"
        )
    else:
        reason = (f"only {cores} CPU core(s) available" if cores < workers
                  else f"budget too small ({config.queries_per_hour} q/h) "
                       "for overheads to amortize")
        print(f"\nNOTE: {reason}; skipping the >= 2.5x wall-clock assertion "
              f"(measured {speedup:.2f}x).")
