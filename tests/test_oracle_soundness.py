"""The central soundness property: a bug-free engine never disagrees with the oracle.

This is the invariant the whole TQS methodology rests on: every mismatch reported
against a real engine must be attributable to that engine, never to the oracle.
The tests sweep generated queries across datasets, seeds and hint sets on the
clean reference engine and require zero mismatches, and additionally check the
complementary property that seeded faults *are* observable.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsg import DSG, DSGConfig
from repro.engine import ALL_DIALECTS, Engine, reference_engine
from repro.errors import GenerationError


def sweep_clean_engine(dsg, queries, hint_limit=6):
    engine = reference_engine(dsg.database)
    mismatches = []
    for _ in range(queries):
        try:
            query = dsg.generate_query()
        except GenerationError:
            continue
        truth = dsg.ground_truth(query)
        for transformed in dsg.transform_query(query)[:hint_limit]:
            result = engine.execute(query, transformed.hints)
            if not truth.matches(result):
                mismatches.append((transformed.render(), transformed.hints.name))
    return mismatches


@pytest.mark.parametrize("dataset", ["shopping", "kddcup", "tpch"])
def test_clean_engine_never_disagrees_with_oracle(dataset):
    dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=110, seed=33))
    assert sweep_clean_engine(dsg, queries=25) == []


def test_clean_engine_agrees_even_without_noise():
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=110, seed=35,
                        inject_noise=False))
    assert sweep_clean_engine(dsg, queries=25) == []


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_clean_engine_agrees_for_random_seeds(seed):
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=90, seed=seed))
    assert sweep_clean_engine(dsg, queries=8, hint_limit=4) == []


@pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=lambda d: d.name)
def test_seeded_faults_are_observable(dialect):
    """Every dialect's fault profile produces at least one oracle mismatch."""
    detected_types = set()
    for dataset in ("shopping", "tpch"):
        dsg = DSG(DSGConfig(dataset=dataset, dataset_rows=110, seed=37))
        engine = Engine(dsg.database, dialect)
        for _ in range(40):
            try:
                query = dsg.generate_query()
            except GenerationError:
                continue
            truth = dsg.ground_truth(query)
            for transformed in dsg.transform_query(query):
                report = engine.execute_with_report(query, transformed.hints)
                if not truth.matches(report.result):
                    detected_types.update(report.fired_bug_ids)
        if len(detected_types) >= 2:
            break
    assert len(detected_types) >= 2


def test_mismatch_attribution_points_at_seeded_bugs():
    """When the oracle flags a result, at least one seeded fault fired."""
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=110, seed=39))
    engine = Engine(dsg.database, ALL_DIALECTS[0])
    attributed = unattributed = 0
    for _ in range(30):
        try:
            query = dsg.generate_query()
        except GenerationError:
            continue
        truth = dsg.ground_truth(query)
        for transformed in dsg.transform_query(query):
            report = engine.execute_with_report(query, transformed.hints)
            if truth.matches(report.result):
                continue
            if report.fired_bug_ids:
                attributed += 1
            else:
                unattributed += 1
    assert attributed > 0
    assert unattributed == 0
