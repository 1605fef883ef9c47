"""Table 4: bugs detected by TQS in 24 (simulated) hours on the four DBMSs.

Paper result: 115 bugs total in 24 hours — 31 (MySQL), 30 (MariaDB), 31 (TiDB),
23 (X-DB) — which root-cause analysis groups into 7 / 5 / 5 / 3 bug types.

Reproduction target (shape, not absolute numbers): TQS finds bugs in every
simulated DBMS within the budget, and the per-DBMS bug-type counts approach the
seeded 7 / 5 / 5 / 3 profile.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_bug_type_details, render_detected_bugs
from repro.core import run_campaign
from repro.engine import ALL_DIALECTS


@pytest.mark.benchmark(group="table4")
def test_table4_detected_bugs(benchmark, campaign_spec_factory):
    """Run the 24-hour TQS campaign against all four simulated DBMSs."""

    def run_all():
        results = {}
        for index, dialect in enumerate(ALL_DIALECTS):
            spec = campaign_spec_factory(hours=24, queries_per_hour=6,
                                         dataset="shopping", seed=5 + index,
                                         dialect=dialect.name)
            results[dialect.name] = run_campaign(spec)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print(render_detected_bugs(results))
    for dialect in ALL_DIALECTS:
        print()
        print(render_bug_type_details(results[dialect.name], dialect))
    print()
    print("Paper reference (Table 4): 31/30/31/23 bugs of 7/5/5/3 types.")

    for dialect in ALL_DIALECTS:
        final = results[dialect.name].final
        assert final.bug_count > 0, f"no bugs found in {dialect.name}"
        assert final.bug_type_count <= dialect.bug_type_count
    total_types = sum(results[d.name].final.bug_type_count for d in ALL_DIALECTS)
    assert total_types >= 12, "campaign should reveal most of the 20 seeded bug types"
