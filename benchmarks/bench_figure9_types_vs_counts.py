"""Figure 9: bug count vs bug types over a 48-hour run on MySQL.

Paper result: the number of detected bugs keeps growing roughly linearly with
testing time, while the number of distinct bug *types* saturates early -- most
bugs are caused by a small set of improperly implemented operators.

Reproduction target: on SimMySQL the cumulative bug count keeps growing through
the 48 simulated hours (high linearity score) while the bug-type curve reaches
its final value well before the end of the run.
"""

from __future__ import annotations

import pytest

from repro.analysis import growth_is_monotonic, linearity_score, render_series, saturation_hour
from repro.core import run_campaign


@pytest.mark.benchmark(group="figure9")
def test_figure9_bug_types_vs_bug_counts(benchmark, campaign_spec_factory):
    """Regenerate the 48-hour MySQL series of Figure 9."""
    spec = campaign_spec_factory(hours=48, queries_per_hour=5,
                                 dataset="shopping", seed=31, dialect="SimMySQL")
    result = benchmark.pedantic(lambda: run_campaign(spec), rounds=1,
                                iterations=1)

    hours = list(range(1, 49))
    print()
    print(render_series(
        "Figure 9 (SimMySQL, 48 simulated hours)",
        hours,
        {"bug count": result.series("bug_count"),
         "bug types": result.series("bug_type_count")},
    ))
    counts = result.series("bug_count")
    types = result.series("bug_type_count")
    assert growth_is_monotonic(counts) and growth_is_monotonic(types)
    assert counts[-1] > types[-1], "many bugs should share few root causes"
    type_saturation = saturation_hour(types)
    assert type_saturation is not None and type_saturation <= 36, (
        "bug types should saturate well before the end of the run"
    )
    assert counts[-1] > counts[len(counts) // 2], (
        "bug count should keep growing in the second half of the run"
    )
    print()
    print(f"bug-count linearity score: {linearity_score(counts):.3f} "
          f"(paper: near-linear growth); bug types saturate at hour {type_saturation}.")
