"""Query cache: determinism contract, LRU bounds, telemetry, key hygiene."""

import pytest

from repro import CampaignSpec, QueryCache, obs, run_campaign
from repro.core.qcache import (
    dataset_fingerprint,
    render_cache_key,
    result_cache_key,
)

SPEC = dict(kind="differential", backend="sqlite", dataset="shopping",
            dataset_rows=70, hours=2, queries_per_hour=10, seed=3)


def fingerprint(result):
    assert result.bug_log is not None
    return (
        tuple(result.samples),
        tuple(incident.query_sql for incident in result.bug_log.incidents),
    )


# --------------------------------------------------------------- determinism


def test_cache_on_equals_cache_off_serial():
    plain = run_campaign(CampaignSpec(**SPEC))
    cached = run_campaign(
        CampaignSpec(**SPEC, use_query_cache=True)
    )
    assert fingerprint(plain) == fingerprint(cached)


def test_cache_on_equals_cache_off_pooled():
    plain = run_campaign(CampaignSpec(**SPEC, workers=2))
    cached = run_campaign(
        CampaignSpec(**SPEC, workers=2, use_query_cache=True)
    )
    assert fingerprint(plain.merged) == fingerprint(cached.merged)


# ------------------------------------------------------------- LRU mechanics


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        QueryCache(max_entries=0)


def test_eviction_keeps_cache_bounded_and_counts():
    previous = obs.set_enabled(True)
    obs.reset_registry()
    try:
        cache = QueryCache(max_entries=4)
        for i in range(10):
            cache.put(f"key-{i}", i, "result")
        assert len(cache) == 4
        snapshot = obs.get_registry().snapshot()
        evictions = snapshot.counters_by_name("qcache.evictions")
        assert evictions == {"qcache.evictions{kind=result}": 6}
    finally:
        obs.reset_registry()
        obs.set_enabled(previous)


def test_lru_recency_and_hit_miss_counters():
    previous = obs.set_enabled(True)
    obs.reset_registry()
    try:
        cache = QueryCache(max_entries=2)
        cache.put("a", 1, "render")
        cache.put("b", 2, "render")
        assert cache.get("a", "render") == (True, 1)   # refreshes "a"
        cache.put("c", 3, "render")                    # evicts "b"
        assert cache.get("b", "render") == (False, None)
        assert cache.get("a", "render") == (True, 1)
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters_by_name("qcache.hits") == {
            "qcache.hits{kind=render}": 2
        }
        assert snapshot.counters_by_name("qcache.misses") == {
            "qcache.misses{kind=render}": 1
        }
    finally:
        obs.reset_registry()
        obs.set_enabled(previous)


def test_clear_empties_without_touching_counters():
    cache = QueryCache()
    cache.put("a", 1, "result")
    cache.clear()
    assert len(cache) == 0
    assert cache.get("a", "result") == (False, None)


# ------------------------------------------------------------- key semantics


def test_result_key_sensitive_to_every_component():
    base = result_cache_key("Q1", "fp", "SELECT 1")
    assert base == result_cache_key("Q1", "fp", "SELECT 1")
    assert base != result_cache_key("Q2", "fp", "SELECT 1")
    assert base != result_cache_key("Q1", "fp2", "SELECT 1")
    assert base != result_cache_key("Q1", "fp", "SELECT 2")
    # Field boundaries cannot be forged across adjacent fields either.
    assert base != result_cache_key("Q1f", "p", "SELECT 1")


def test_render_key_is_dataset_independent_but_backend_specific():
    assert render_cache_key("sqlite", "SELECT 1") == render_cache_key(
        "sqlite", "SELECT 1"
    )
    assert render_cache_key("sqlite", "SELECT 1") != render_cache_key(
        "duckdb", "SELECT 1"
    )
    # Separator discipline: field boundaries cannot be forged by
    # concatenation games across adjacent fields.
    assert render_cache_key("ab", "c") != render_cache_key("a", "bc")


def test_dataset_fingerprint_tracks_content():
    from repro import DSG, DSGConfig

    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=60, seed=2))
    twin = DSG(DSGConfig(dataset="shopping", dataset_rows=60, seed=2))
    other = DSG(DSGConfig(dataset="shopping", dataset_rows=60, seed=4))
    assert dataset_fingerprint(dsg.database) == dataset_fingerprint(twin.database)
    assert dataset_fingerprint(dsg.database) != dataset_fingerprint(other.database)
