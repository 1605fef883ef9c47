"""Figure 8(a-d): query-graph diversity of TQS vs the SQLancer baselines.

Paper result: over 24 hours TQS explores far more isomorphic query-graph sets
than PQS / TLP / NoRec on every DBMS (hundreds of thousands vs tens of
thousands), because the baselines generate many unusable or structurally
repetitive joins.

Reproduction target: at the end of the simulated campaign, TQS's isomorphic-set
count dominates every baseline's on every DBMS, and every diversity series grows
monotonically with time.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import growth_is_monotonic, render_series
from repro.core import run_campaign
from repro.engine import ALL_DIALECTS

# The paper pairs each DBMS with the baselines SQLancer supports on it.
BASELINES_PER_DBMS = {
    "SimMySQL": ("PQS", "TLP"),
    "SimMariaDB": ("NoRec",),
    "SimTiDB": ("TLP",),
    "SimXDB": ("PQS", "TLP"),
}


@pytest.mark.benchmark(group="figure8")
def test_figure8_query_graph_diversity(benchmark, campaign_spec_factory):
    """Regenerate the four diversity-vs-hours panels of Figure 8."""

    def run_all():
        panels = {}
        for index, dialect in enumerate(ALL_DIALECTS):
            spec = campaign_spec_factory(hours=24, queries_per_hour=5,
                                         dataset="shopping", seed=11 + index,
                                         dialect=dialect.name)
            series = {"TQS": run_campaign(spec)}
            for name in BASELINES_PER_DBMS[dialect.name]:
                series[name] = run_campaign(
                    replace(spec, kind="baseline", baseline=name))
            panels[dialect.name] = series
        return panels

    panels = benchmark.pedantic(run_all, rounds=1, iterations=1)

    hours = list(range(1, 25))
    for dbms, series in panels.items():
        print()
        print(render_series(
            f"Figure 8 ({dbms}): isomorphic sets explored per hour",
            hours,
            {tool: result.series("isomorphic_sets") for tool, result in series.items()},
        ))
        tqs_final = series["TQS"].final.isomorphic_sets
        for tool, result in series.items():
            assert growth_is_monotonic(result.series("isomorphic_sets"))
            if tool != "TQS":
                assert tqs_final >= result.final.isomorphic_sets, (
                    f"TQS should dominate {tool} on {dbms} diversity"
                )
    print()
    print("Paper reference (Figure 8a-d): TQS reaches ~400k isomorphic sets in "
          "24h, several times more than PQS/TLP/NoRec.")
