"""Campaign benchmark of the TQS reproduction: one seeded workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload diff-sqlite --seed 1 --seconds 20 --trace 0

A run derives a fixed list of campaign seeds from ``--seed``, sizes the work
so that its campaign loops take about ``--seconds`` at the reference speed of
the host gauge (``gauge.py``), and runs the campaigns back to back through
the public entry points
(``CampaignSpec``/``CampaignConfig``, ``build_tqs_tester``,
``build_differential_tester``, ``run_campaign_loop``, ``build_shard_specs`` +
``run_parallel_shards``).  Every campaign is a closed loop: the next query is
generated only after the previous one is judged.  The reference executor is
the default one and the query cache is off, so each campaign is a single pass.

Every run checks the campaigns' verdicts and prints their deterministic counts.
The last line of standard output is one JSON object: with ``--trace 0`` it
carries the end-to-end metrics, measured with telemetry off and reported at
the gauge's reference speed (the line before it gives them as measured); with
``--trace 1`` every campaign runs twice, untraced and traced, and the object
carries the per-layer metrics recorded by the wrappers in ``layers.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

SOURCE = Path(__file__).resolve().parent.parent / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"perfbench: no package at {SOURCE / 'repro'}; run from a "
             "checkout of the repository")
sys.path.insert(0, str(SOURCE))

import gauge  # noqa: E402
import layers  # noqa: E402  (needs the path above)
from repro import CampaignSpec, ParallelCampaignConfig, obs  # noqa: E402
from repro.backends import backend_from_name  # noqa: E402
from repro.core import parallel  # noqa: E402
from repro.core.campaign import (  # noqa: E402
    CampaignResult,
    build_differential_tester,
    build_tqs_tester,
    run_campaign_loop,
)
from repro.core.differential import DifferentialTester  # noqa: E402
from repro.core.parallel import build_shard_specs, run_parallel_shards  # noqa: E402
from repro.core.tqs import TQS  # noqa: E402
from repro.engine.dialects import dialect_by_name  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign template and its nominal cost."""

    spec: CampaignSpec
    # Loop seconds one campaign takes at the gauge's reference speed; a run
    # of S seconds runs round(S / campaign_s) campaigns (at least two).
    campaign_s: float


#: The datasets are small on purpose.  A query's cost grows with its join
#: fan-out, so it is heavy-tailed, and more so as rows are added: at 60 rows
#: the slowest 1% of differential queries take a quarter of the loop time,
#: and at 150 rows single campaigns of 288 queries ran at 40 to 73
#: comparisons/s depending on the seed.  Small datasets put thousands of
#: queries in a run, so its figures follow the host's speed, not its seed.
WORKLOADS: Dict[str, Workload] = {
    # The paper's Algorithm 1: hinted execution on the seeded-fault
    # SimMySQL, judged against the wide-table ground truth, KQE on.
    "tqs-sim": Workload(
        CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=10,
                     hours=2, queries_per_hour=12),
        campaign_s=0.25),
    # Differential TQS against stdlib SQLite, classic join grammar.
    "diff-sqlite": Workload(
        CampaignSpec(kind="differential", backend="sqlite", dataset_rows=20,
                     hours=8, queries_per_hour=12),
        campaign_s=0.36),
    # Differential TQS with the widened grammar: set operations, scalar
    # subqueries and CTEs; their reference execution is the largest layer.
    "diff-widened": Workload(
        CampaignSpec(kind="differential", backend="sqlite", dataset_rows=10,
                     hours=8, queries_per_hour=12, setop_probability=0.4,
                     scalar_subquery_probability=0.3, cte_probability=0.25),
        campaign_s=0.45),
    # The same campaign split over 2 TCP clients of an in-process index
    # server, syncing every simulated hour.
    "tcp-2c": Workload(
        CampaignSpec(kind="differential", backend="sqlite", dataset_rows=20,
                     hours=48, queries_per_hour=8, workers=2),
        campaign_s=1.1),
}


def campaign_seed(workload: str, seed: int, index: int) -> int:
    """The seed of the *index*-th campaign of a run (stable across hosts)."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode())
    return int.from_bytes(digest.digest()[:4], "big")


class Clock:
    """Loop bounds, host readings and iteration latencies, in memory that
    forked workers share.

    ``_loop`` holds the latest time a worker was ready to loop, the latest
    loop start and the latest loop end of the current campaign
    (``time.monotonic``, which all processes share); the campaign's set-up
    ends when its last worker is ready.  Every process that loops reads the
    host gauge right before and right after its loop, outside both the set-up
    and the loop; ``_gauge`` sums those readings.
    """

    def __init__(self, capacity: int) -> None:
        context = multiprocessing.get_context("fork")
        self._lock = context.Lock()
        self._latencies = context.RawArray("d", capacity)
        self._count = context.RawValue("i", 0)
        self._loop = context.RawArray("d", 3)
        self._gauge = context.RawArray("d", 2)

    def reset(self) -> None:
        self._count.value = 0
        self._loop[:] = [0.0, 0.0, 0.0]
        self._gauge[0] = self._gauge[1] = 0.0

    def loop_bounds(self) -> Tuple[float, float, float]:
        """The latest ready time, loop start and loop end."""
        return self._loop[0], self._loop[1], self._loop[2]

    def latencies(self) -> List[float]:
        return list(self._latencies[: self._count.value])

    def slowdown(self) -> float:
        """How much slower than the gauge's reference the host ran around
        the campaign: its mean reading over ``gauge.REFERENCE_S``."""
        return self._gauge[0] / self._gauge[1] / gauge.REFERENCE_S

    def _read_gauge(self) -> None:
        seconds = gauge.reading()
        with self._lock:
            self._gauge[0] += seconds
            self._gauge[1] += 1

    def time_loop(self, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ready = time.monotonic()
            self._read_gauge()
            start = time.monotonic()
            with self._lock:
                self._loop[0] = max(self._loop[0], ready)
                self._loop[1] = max(self._loop[1], start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                with self._lock:
                    self._loop[2] = max(self._loop[2], end)
                self._read_gauge()

        return wrapper

    def time_iteration(self, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self._latencies[self._count.value] = elapsed
                    self._count.value += 1

        return wrapper


@dataclass
class Campaign:
    """What one campaign did: timings, counts and its verdict check."""

    setup_s: float
    loop_s: float
    latencies: List[float]
    generated: int
    comparisons: int
    labels: int
    bugs: int
    rejected: int
    incidents: List[Any]
    slowdown: float
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def counts(self) -> Tuple[int, int, int, int, int]:
        return (self.generated, self.comparisons, self.labels, self.bugs,
                self.rejected)


def _build(spec: CampaignSpec):
    config = spec.campaign_config()
    if spec.kind == "tqs":
        return build_tqs_tester(dialect_by_name(spec.dialect), config)
    return build_differential_tester(backend_from_name(spec.backend), config)


def _close(tester) -> None:
    if isinstance(tester, DifferentialTester):
        tester.close()


def run_serial(spec: CampaignSpec, clock: Clock, loop: Callable) -> Campaign:
    clock.reset()
    gc.collect()
    start = time.monotonic()
    tester = _build(spec)
    setup_s = time.monotonic() - start
    try:
        gc.collect()
        result = CampaignResult(tool=spec.kind, dbms=spec.dialect,
                                dataset=spec.dataset)
        clock.time_loop(loop)(tester, result, spec.hours,
                              spec.queries_per_hour)
    finally:
        _close(tester)
    _, begin, end = clock.loop_bounds()
    final = result.final
    return Campaign(setup_s=setup_s, loop_s=end - begin,
                    latencies=clock.latencies(), slowdown=clock.slowdown(),
                    generated=final.queries_generated,
                    comparisons=final.queries_executed,
                    labels=final.isomorphic_sets, bugs=final.bug_count,
                    rejected=final.generations_rejected,
                    incidents=list(result.bug_log.incidents))


def run_pool(spec: CampaignSpec, clock: Clock) -> Campaign:
    clock.reset()
    shards = build_shard_specs(spec.kind, spec.campaign_config(), spec.workers,
                               dialect=spec.dialect, backend=spec.backend)
    config = ParallelCampaignConfig(workers=spec.workers, sync_interval=1,
                                    transport="tcp", start_method="fork",
                                    worker_timeout=120.0)
    gc.collect()
    start = time.monotonic()
    outcome = run_parallel_shards(shards, config)
    ready, begin, end = clock.loop_bounds()
    final = outcome.merged.final
    return Campaign(setup_s=ready - start, loop_s=end - begin,
                    latencies=clock.latencies(), slowdown=clock.slowdown(),
                    generated=final.queries_generated,
                    comparisons=final.queries_executed,
                    labels=final.isomorphic_sets, bugs=final.bug_count,
                    rejected=final.generations_rejected,
                    incidents=list(outcome.merged.bug_log.incidents),
                    telemetry=outcome.telemetry)


class Runner:
    """Runs one workload's campaigns with the benchmark's timers installed."""

    def __init__(self, workload: Workload) -> None:
        self.spec = workload.spec
        self.clock = Clock(self.spec.hours * self.spec.queries_per_hour)
        self._timers = layers.Installed()
        for owner in (TQS, DifferentialTester):
            self._timers.patch(owner, "run_iteration",
                               self.clock.time_iteration(
                                   owner.__dict__["run_iteration"]))
        if self.spec.workers > 1:
            self._timers.patch(parallel, "run_campaign_loop",
                               self.clock.time_loop(run_campaign_loop))

    def close(self) -> None:
        self._timers.remove()

    def warm_up(self) -> None:
        """One untimed tiny campaign, so lazy imports and first calls are paid.

        It takes the same path as the timed ones: for the pool that includes
        the server start, the fork and the workers' connections.
        """
        self._run(replace(self.spec, hours=2, queries_per_hour=2),
                  run_campaign_loop)

    def run(self, seed: int, traced: bool = False) -> Campaign:
        spec = replace(self.spec, seed=seed)
        if not traced:
            return self._run(spec, run_campaign_loop)
        obs.set_enabled(True)
        installed = layers.install()
        try:
            loop = layers.loop_span(run_campaign_loop)
            if spec.workers > 1:
                # The gauge readings stay outside the loop span.
                installed.patch(parallel, "run_campaign_loop",
                                self.clock.time_loop(loop))
            return self._run(spec, loop)
        finally:
            installed.remove()
            obs.set_enabled(False)

    def _run(self, spec: CampaignSpec, loop: Callable) -> Campaign:
        if spec.workers > 1:
            return run_pool(spec, self.clock)
        return run_serial(spec, self.clock, loop)


def verdict_errors(spec: CampaignSpec, campaigns: List[Campaign]) -> List[str]:
    """The run's failed verdict checks (empty when every check passes)."""
    errors: List[str] = []
    incidents = [i for campaign in campaigns for i in campaign.incidents]
    if any(campaign.generated == 0 or campaign.comparisons == 0
           for campaign in campaigns):
        errors.append("a campaign generated or compared nothing")
    if spec.kind == "tqs":
        if not incidents:
            errors.append("TQS filed no incident against the seeded faults")
        if any(not incident.fired_bug_ids for incident in incidents):
            errors.append("a TQS incident names no fired seeded fault")
    elif incidents:
        errors.append(f"{len(incidents)} mismatches against bug-free "
                      f"{spec.backend}")
    return errors


def quantile(values: List[float], index: int) -> float:
    """The *index*-th decile of *values* (``statistics.quantiles``, n=10)."""
    return statistics.quantiles(values, n=10)[index - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited-for workers."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def end_to_end(campaigns: List[Campaign]) -> Dict[str, Tuple[float, str]]:
    """The run's end-to-end metrics, every timing at the gauge's reference speed."""
    loop_s = sum(c.loop_s / c.slowdown for c in campaigns)
    latencies = [x / c.slowdown for c in campaigns for x in c.latencies]
    return {
        "comparisons_per_s": (
            sum(c.comparisons for c in campaigns) / loop_s, "1/s"),
        "labels_per_s": (sum(c.labels for c in campaigns) / loop_s, "1/s"),
        "iter_p50_ms": (quantile(latencies, 5) * 1000.0, "ms"),
        "iter_p90_ms": (quantile(latencies, 9) * 1000.0, "ms"),
        "setup_s": (statistics.median(c.setup_s / c.slowdown
                                      for c in campaigns), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    count = max(2, round(args.seconds / workload.campaign_s))
    seeds = [campaign_seed(args.workload, args.seed, i) for i in range(count)]
    obs.set_enabled(False)
    runner = Runner(workload)
    try:
        runner.warm_up()
        untraced: List[Campaign] = []
        traced: List[Campaign] = []
        for index, seed in enumerate(seeds):
            if not args.trace:
                untraced.append(runner.run(seed))
                continue
            # Alternate which pass goes first, so warm caches favour neither.
            if index % 2 == 0:
                untraced.append(runner.run(seed))
                traced.append(runner.run(seed, traced=True))
            else:
                traced.append(runner.run(seed, traced=True))
                untraced.append(runner.run(seed))
    finally:
        runner.close()

    spec = workload.spec
    errors = verdict_errors(spec, untraced + traced)
    if traced and [c.counts for c in traced] != [c.counts for c in untraced]:
        errors.append("traced campaigns reached different counts")
    totals = [sum(column) for column in zip(*(c.counts for c in untraced))]
    generated, comparisons, labels, bugs, rejected = totals
    skipped = generated - comparisons if spec.kind == "differential" else 0
    print(f"workload {args.workload}: {len(seeds)} campaigns of "
          f"{spec.hours}h x {spec.queries_per_hour} queries, "
          f"{spec.dataset_rows} rows, {spec.workers} worker(s)")
    print(f"counts: generated={generated} comparisons={comparisons} "
          f"labels={labels} bugs={bugs} rejected={rejected} skipped={skipped}")
    for error in errors:
        print(f"verdict check failed: {error}")

    if args.trace:
        obs.set_enabled(True)  # the disabled registry hides the recorded one
        snapshot = obs.get_registry().snapshot()
        snapshot = obs.MetricsSnapshot.merge_all(
            [snapshot] + [obs.MetricsSnapshot.from_dict(c.telemetry)
                          for c in traced if c.telemetry])
        values = layers.per_layer(
            snapshot, generated=generated, labels=labels,
            traced_loop_s=sum(c.loop_s / c.slowdown for c in traced),
            untraced_loop_s=sum(c.loop_s / c.slowdown for c in untraced))
    else:
        values = end_to_end(untraced)
        raw = end_to_end([replace(c, slowdown=1.0) for c in untraced])
        print(f"host: median slowdown "
              f"{statistics.median(c.slowdown for c in untraced):.3f} "
              f"against the gauge's reference; as measured: "
              + ", ".join(f"{name}={value:.4g}"
                          for name, (value, _) in raw.items()))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    print(json.dumps({"correct": not errors,
                      "attempted": generated + rejected,
                      "failed": rejected + skipped,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
