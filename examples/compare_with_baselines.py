"""Compare TQS against the SQLancer-style baselines (the Figure 8 experiment).

Runs a short campaign of TQS, PQS, TLP and NoRec against the same simulated
TiDB instance and prints the per-hour diversity and bug-count series side by
side, the way Figure 8 plots them.

Run with:  python examples/compare_with_baselines.py [hours] [queries_per_hour]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import CampaignSpec, run_campaign
from repro.analysis import compare_final, render_series
from repro.engine import SIM_TIDB


def main(hours: int = 8, queries_per_hour: int = 5) -> None:
    spec = CampaignSpec(dialect=SIM_TIDB.name, dataset="tpch",
                        dataset_rows=120, hours=hours,
                        queries_per_hour=queries_per_hour, seed=9)
    print(f"Running {hours} simulated hours x {queries_per_hour} queries/hour "
          f"against {SIM_TIDB.name} {SIM_TIDB.version} ...")
    results = {"TQS": run_campaign(spec)}
    for name in ("PQS", "TLP", "NoRec"):
        results[name] = run_campaign(replace(spec, kind="baseline", baseline=name))

    hours_axis = list(range(1, hours + 1))
    print()
    print(render_series(
        "Query graph diversity (isomorphic sets, cf. Figure 8c)",
        hours_axis,
        {tool: result.series("isomorphic_sets") for tool, result in results.items()},
    ))
    print()
    print(render_series(
        "Cumulative bugs detected (cf. Figure 8g)",
        hours_axis,
        {tool: result.series("bug_count") for tool, result in results.items()},
    ))
    print()
    print("Final comparison (TQS vs baselines):")
    baselines = {name: result for name, result in results.items() if name != "TQS"}
    for metric in ("isomorphic_sets", "bug_count", "bug_type_count"):
        for comparison in compare_final(metric, results["TQS"], baselines):
            print(f"  {metric:<16} TQS={comparison.tqs_value:<5} "
                  f"{comparison.baseline_name}={comparison.baseline_value:<5} "
                  f"(x{comparison.ratio:.1f})")


if __name__ == "__main__":
    hours = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    qph = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    main(hours, qph)
