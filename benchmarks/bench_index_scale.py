"""KQE index at scale: sublinear KNN, O(1) novelty checks, packed sync wire.

Builds a 10^5-entry index of clustered synthetic embeddings (the regime a
multi-day, multi-worker campaign reaches) and measures the three costs the
persistent-index work targets:

* ``nearest_by_vector`` p50 — the vectorized+LSH path against an inline
  reimplementation of the legacy per-entry Python scan (list of numpy rows,
  one dot product per entry).  Acceptance: >= 10x.
* LSH recall@5 against the exact scan, with tie tolerance (a candidate
  counts as recalled if its similarity ties the exact 5th-best).
  Acceptance: >= 0.95.
* SYNC payload size: packed base64-float32 entries vs legacy JSON arrays,
  bytes and encode+decode time.  Acceptance: >= 3x byte reduction.

Also reports the novelty-check (``contains_label``) p50 — the per-generated-
query hot path — and the phase breakdown.  Set ``TQS_BENCH_ARTIFACT`` to a
path to dump the numbers as JSON (the CI bench smoke uploads it).

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

from repro import obs
from repro.distributed import wire
from repro.kqe import GraphIndex
from repro.kqe.store import quantize_to_float32

from benchmarks.conftest import scaled

DIMS = 64
CLUSTERS = 200


def clustered_vectors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Non-negative, cluster-structured embeddings like real KQE output."""
    centers = rng.random((CLUSTERS, DIMS)) * 4.0
    assignment = rng.integers(0, CLUSTERS, size=count)
    noise = rng.random((count, DIMS)) * 0.5
    return centers[assignment] + noise


def legacy_nearest(rows, norms, query: np.ndarray, k: int):
    """The pre-matrix index's scan: one Python-loop cosine per stored entry."""
    query_norm = float(np.linalg.norm(query))
    scored = []
    for index, (row, norm) in enumerate(zip(rows, norms)):
        denominator = norm * query_norm
        if denominator <= 0.0:
            scored.append((index, 0.0))
            continue
        scored.append((index, float(np.dot(row, query)) / denominator))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def p50(samples) -> float:
    return statistics.median(samples)


@pytest.mark.benchmark(group="index-scale")
def test_index_scale_knn_and_wire(benchmark):
    entries = scaled(100_000, minimum=20_000)
    rng = np.random.default_rng(7)
    vectors = clustered_vectors(entries, rng)
    # Queries are perturbations of stored entries: the production lookup is
    # "how close is this new query graph to ones we already explored".
    picks = rng.integers(0, entries, size=64)
    queries = vectors[picks] + rng.random((64, DIMS)) * 0.25
    k = 5

    obs.reset_registry()
    index = GraphIndex(lsh_min_size=4096)
    with obs.span("bench.build_index"):
        for position in range(entries):
            index.add_embedding(vectors[position], f"L{position % 1000}")
    assert index.embedder.dimensions == DIMS

    # Legacy storage layout: a Python list of per-entry arrays with norms.
    legacy_rows = [vectors[position] for position in range(entries)]
    legacy_norms = [float(np.linalg.norm(row)) for row in legacy_rows]

    def measure_knn():
        legacy_times = []
        with obs.span("bench.legacy_scan"):
            for query in queries[:8]:
                start = time.perf_counter()
                legacy_nearest(legacy_rows, legacy_norms, query, k)
                legacy_times.append(time.perf_counter() - start)
        fast_times = []
        with obs.span("bench.vectorized_lsh"):
            for query in queries:
                start = time.perf_counter()
                index.nearest_by_vector(query, k=k)
                fast_times.append(time.perf_counter() - start)
        return p50(legacy_times), p50(fast_times)

    legacy_p50, fast_p50 = benchmark.pedantic(measure_knn, rounds=1, iterations=1)
    speedup = legacy_p50 / max(fast_p50, 1e-12)

    # Recall@5 with tie tolerance: approximate hits count when they tie the
    # exact 5th-best similarity (distinct rows at identical cosine are
    # interchangeable neighbours).
    recalled = total = 0
    for query in queries:
        exact = index.nearest_by_vector(query, k=k, approximate=False)
        approx = index.nearest_by_vector(query, k=k)
        floor = exact[-1][1] - 1e-12
        exact_ids = {position for position, _ in exact}
        for position, score in approx:
            if position in exact_ids or score >= floor:
                recalled += 1
        total += k
    recall = recalled / total

    # Novelty-check hot path: one membership probe per generated query.
    novelty_times = []
    for probe in range(2000):
        start = time.perf_counter()
        index.contains_label(f"L{probe % 1500}")
        novelty_times.append(time.perf_counter() - start)
    novelty_p50 = p50(novelty_times)

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

    snapshot = obs.get_registry().snapshot()
    counters = snapshot.counters
    breakdown = obs.render_phase_breakdown(snapshot)
    report = {
        "entries": entries,
        "dims": DIMS,
        "knn": {
            "legacy_scan_p50_ms": legacy_p50 * 1e3,
            "vectorized_lsh_p50_ms": fast_p50 * 1e3,
            "speedup": speedup,
            "recall_at_5": recall,
            "lsh_queries": counters.get("index.knn.lsh_queries", 0),
            "exact_queries": counters.get("index.knn.exact_queries", 0),
        },
        "novelty_check_p50_us": novelty_p50 * 1e6,
        "sync_wire": {
            "batch_entries": len(batch),
            "json_bytes": json_bytes,
            "packed_bytes": packed_bytes,
            "byte_reduction": byte_reduction,
            "json_round_trip_ms": json_seconds * 1e3,
            "packed_round_trip_ms": packed_seconds * 1e3,
        },
    }

    print()
    print(breakdown)
    print(
        f"nearest_by_vector p50: legacy scan {legacy_p50 * 1e3:.2f}ms -> "
        f"vectorized+LSH {fast_p50 * 1e3:.3f}ms ({speedup:.1f}x), "
        f"recall@5 {recall:.3f}"
    )
    print(f"contains_label p50: {novelty_p50 * 1e6:.2f}us")
    print(
        f"SYNC batch ({len(batch)} entries): JSON {json_bytes} B / "
        f"{json_seconds * 1e3:.1f}ms vs packed {packed_bytes} B / "
        f"{packed_seconds * 1e3:.1f}ms ({byte_reduction:.2f}x smaller)"
    )

    artifact = os.environ.get("TQS_BENCH_ARTIFACT", "")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    assert report["knn"]["lsh_queries"] > 0, "LSH prefilter never engaged"
    assert recall >= 0.95, f"LSH recall@5 {recall:.3f} below the 0.95 bar"
    assert speedup >= 10.0, (
        f"expected >= 10x over the legacy per-entry scan at {entries} entries, "
        f"got {speedup:.1f}x"
    )
    assert byte_reduction >= 3.0, (
        f"expected >= 3x SYNC payload reduction, got {byte_reduction:.2f}x"
    )
    assert novelty_p50 < 1e-3, "novelty check must stay O(1) at scale"
