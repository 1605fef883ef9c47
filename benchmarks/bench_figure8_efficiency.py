"""Figure 8(e-h): bug-detection efficiency of TQS vs the SQLancer baselines.

Paper result: within 24 hours TQS finds 20-30 bugs per DBMS while PQS / TLP /
NoRec find at most a handful, tracking the diversity advantage of Figure 8(a-d).

Reproduction target: TQS's cumulative bug count dominates every baseline's on
every DBMS at the end of the campaign, and TQS finds strictly more bug *types*
than any baseline overall.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import growth_is_monotonic, render_series
from repro.core import run_campaign
from repro.engine import ALL_DIALECTS

BASELINES_PER_DBMS = {
    "SimMySQL": ("PQS", "TLP"),
    "SimMariaDB": ("NoRec",),
    "SimTiDB": ("TLP",),
    "SimXDB": ("PQS", "TLP"),
}


@pytest.mark.benchmark(group="figure8")
def test_figure8_bug_detection_efficiency(benchmark, campaign_spec_factory):
    """Regenerate the four bug-count-vs-hours panels of Figure 8."""

    def run_all():
        panels = {}
        for index, dialect in enumerate(ALL_DIALECTS):
            spec = campaign_spec_factory(hours=24, queries_per_hour=5,
                                         dataset="tpch", seed=21 + index,
                                         dialect=dialect.name)
            series = {"TQS": run_campaign(spec)}
            for name in BASELINES_PER_DBMS[dialect.name]:
                series[name] = run_campaign(
                    replace(spec, kind="baseline", baseline=name))
            panels[dialect.name] = series
        return panels

    panels = benchmark.pedantic(run_all, rounds=1, iterations=1)

    hours = list(range(1, 25))
    total_tqs_types = 0
    total_baseline_types = 0
    for dbms, series in panels.items():
        print()
        print(render_series(
            f"Figure 8 ({dbms}): cumulative bugs per hour",
            hours,
            {tool: result.series("bug_count") for tool, result in series.items()},
        ))
        tqs = series["TQS"].final
        total_tqs_types += series["TQS"].final.bug_type_count
        for tool, result in series.items():
            assert growth_is_monotonic(result.series("bug_count"))
            if tool != "TQS":
                total_baseline_types = max(total_baseline_types,
                                           result.final.bug_type_count)
                assert tqs.bug_count >= result.final.bug_count, (
                    f"TQS should find at least as many bugs as {tool} on {dbms}"
                )
        assert tqs.bug_count > 0
    assert total_tqs_types > total_baseline_types
    print()
    print("Paper reference (Figure 8e-h): TQS finds 20-30 bugs per DBMS in 24h; "
          "baselines stay in single digits.")
