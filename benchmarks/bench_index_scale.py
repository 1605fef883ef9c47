"""KQE index at campaign scale: flat per-query cost, O(1) novelty checks,
packed sync wire.

The index registers one entry per generated query, but keeps one row per
distinct embedding, so the walk's exact scan grows with the join shapes a
campaign meets, not with its length.  This module measures:

* a long serial differential campaign against SQLite (40 h × 250 q at full
  scale; ``TQS_BENCH_SCALE`` scales the hourly budget).  It reports every
  hour's CPU milliseconds per query, the index's entries and distinct rows,
  and asserts that the last hour's per-query cost is within 1.5× of hour
  2's.  The database is a file, so the campaign checks in this process and
  its CPU time is all of the work;
* the novelty-check (``contains_label``) p50, the per-generated-query hot
  path, on an index of 10^5 labels;
* SYNC payload size: packed base64-float32 entries vs legacy JSON arrays,
  bytes and encode+decode time.  Acceptance: >= 3x byte reduction.

Set ``TQS_BENCH_ARTIFACT`` to a path to dump the numbers as JSON.

Synthetic data uses ``numpy.random.default_rng``: benchmarks sit outside the
campaign determinism closure, and a fixed seed keeps runs comparable anyway.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pytest

from repro.backends import SQLiteBackend
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    build_differential_tester,
    run_campaign_loop,
)
from repro.distributed import wire
from repro.kqe import GraphIndex
from repro.kqe.store import quantize_to_float32

from benchmarks.conftest import scaled

DIMS = 64
CLUSTERS = 200
#: The longest hour may cost this much more per query than hour 2.
FLAT_BOUND = 1.5


def clustered_vectors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Non-negative, cluster-structured embeddings like real KQE output."""
    centers = rng.random((CLUSTERS, DIMS)) * 4.0
    assignment = rng.integers(0, CLUSTERS, size=count)
    noise = rng.random((count, DIMS)) * 0.5
    return centers[assignment] + noise


def p50(samples) -> float:
    return statistics.median(samples)


#: The numbers of every benchmark of this module run so far.
REPORT: dict = {}


def dump_artifact(**numbers) -> None:
    REPORT.update(numbers)
    artifact = os.environ.get("TQS_BENCH_ARTIFACT", "")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(REPORT, handle, indent=2)
            handle.write("\n")


@pytest.mark.benchmark(group="index-scale")
def test_long_campaign_cost_stays_flat(benchmark, tmp_path):
    config = CampaignConfig(dataset="shopping", dataset_rows=20, hours=40,
                            queries_per_hour=scaled(250, minimum=25), seed=77)
    backend = SQLiteBackend(str(tmp_path / "campaign.db"))
    tester = build_differential_tester(backend, config)
    result = CampaignResult(tool="TQS", dbms="SQLite", dataset=config.dataset)
    stamps = [time.process_time()]

    def campaign():
        run_campaign_loop(tester, result, config.hours, config.queries_per_hour,
                          on_hour=lambda record: stamps.append(time.process_time()))

    try:
        benchmark.pedantic(campaign, rounds=1, iterations=1)
    finally:
        tester.close()
    assert tester.checker_forks == 0
    per_query_ms = [(after - before) * 1e3 / config.queries_per_hour
                    for before, after in zip(stamps, stamps[1:])]
    store = tester.kqe.index._store
    report = {
        "hours": config.hours,
        "queries_per_hour": config.queries_per_hour,
        "entries": len(store),
        "distinct_rows": store.distinct_rows,
        "cpu_ms_per_query": [round(value, 3) for value in per_query_ms],
    }
    print()
    print(f"{len(store)} index entries over {store.distinct_rows} distinct rows; "
          f"CPU ms/query hour 1 {per_query_ms[0]:.3f}, hour 2 "
          f"{per_query_ms[1]:.3f}, hour {config.hours} {per_query_ms[-1]:.3f}")
    dump_artifact(long_campaign=report)
    assert result.final.bug_count == 0
    assert len(store) == result.final.queries_generated
    assert per_query_ms[-1] <= FLAT_BOUND * per_query_ms[1], report


@pytest.mark.benchmark(group="index-scale")
def test_novelty_check_and_packed_wire(benchmark):
    entries = scaled(100_000, minimum=20_000)
    rng = np.random.default_rng(7)
    vectors = clustered_vectors(entries, rng)

    index = GraphIndex()
    for position in range(entries):
        index.add_embedding(vectors[position], f"L{position % 1000}")
    assert index.embedder.dimensions == DIMS

    # Novelty-check hot path: one membership probe per generated query.
    def measure_novelty():
        times = []
        for probe in range(2000):
            start = time.perf_counter()
            index.contains_label(f"L{probe % 1500}")
            times.append(time.perf_counter() - start)
        return p50(times)

    novelty_p50 = benchmark.pedantic(measure_novelty, rounds=1, iterations=1)

    # SYNC wire: one realistic round's batch, packed vs per-float JSON
    # arrays (the retired entry encoding, built inline as the comparison).
    batch = [
        (quantize_to_float32([float(c) for c in vectors[row]]), f"L{row % 1000}")
        for row in range(2000)
    ]

    def json_round_trip():
        text = json.dumps([[list(vector), label] for vector, label in batch])
        decoded = [(list(map(float, vector)), label)
                   for vector, label in json.loads(text)]
        assert len(decoded) == len(batch)
        return len(text)

    def packed_round_trip():
        text = json.dumps(wire.encode_entries_packed(batch))
        wire.decode_entries_packed(json.loads(text))
        return len(text)

    start = time.perf_counter()
    json_bytes = json_round_trip()
    json_seconds = time.perf_counter() - start
    start = time.perf_counter()
    packed_bytes = packed_round_trip()
    packed_seconds = time.perf_counter() - start
    byte_reduction = json_bytes / packed_bytes

    print()
    print(f"contains_label p50 at {entries} entries: {novelty_p50 * 1e6:.2f}us")
    print(
        f"SYNC batch ({len(batch)} entries): JSON {json_bytes} B / "
        f"{json_seconds * 1e3:.1f}ms vs packed {packed_bytes} B / "
        f"{packed_seconds * 1e3:.1f}ms ({byte_reduction:.2f}x smaller)"
    )
    dump_artifact(novelty_check_p50_us=novelty_p50 * 1e6, sync_wire={
        "batch_entries": len(batch),
        "json_bytes": json_bytes,
        "packed_bytes": packed_bytes,
        "byte_reduction": byte_reduction,
        "json_round_trip_ms": json_seconds * 1e3,
        "packed_round_trip_ms": packed_seconds * 1e3,
    })
    assert byte_reduction >= 3.0, (
        f"expected >= 3x SYNC payload reduction, got {byte_reduction:.2f}x"
    )
    assert novelty_p50 < 1e-3, "novelty check must stay O(1) at scale"
