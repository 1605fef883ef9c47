"""Steadiness check: repeat the benchmark over seeds and report each spread.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --output perfbench/steadiness.json

Each run is a fresh ``perfbench/run.py`` process with its own seed; the
workload order rotates from one round to the next.  For every workload and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``, and keeps every run's values and wall time.  One traced
run per workload, on the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its verdict checks:\n"
                         f"{completed.stdout}")
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    low, median, high = statistics.quantiles(values, n=4)
    return {"median": median, "q1": low, "q3": high,
            "spread": (high - low) / median}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--output", default=None,
                        help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    walls: Dict[str, List[float]] = {w: [] for w in workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = run_once(workload, seed, seconds, trace=0)
            walls[workload].append(result["wall_s"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{name}={metric['value']:.4g}"
                              for name, metric in result["metrics"].items())
                  + f" ({result['wall_s']:.1f} s)", flush=True)

    # One traced run per workload gives the per-layer breakdown.
    traced = {}
    for workload in workloads:
        result = run_once(workload, args.first_seed, seconds, trace=1)
        traced[workload] = {name: metric["value"]
                            for name, metric in result["metrics"].items()}
        print(f"traced {workload} seed {args.first_seed}: "
              + ", ".join(f"{name}={value:.4g}"
                          for name, value in traced[workload].items()),
              flush=True)

    summary = {
        "runs": args.runs, "seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {w: {name: summarize(v) for name, v in metrics.items()}
                      for w, metrics in values.items()},
        "values": values,
        "wall_s": {w: summarize(v) for w, v in walls.items()},
        "traced": traced,
    }
    print(f"{'workload':14} {'metric':18} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for workload, metrics in summary["workloads"].items():
        for name, stats in metrics.items():
            print(f"{workload:14} {name:18} {stats['median']:10.4g} "
                  f"{stats['q1']:10.4g} {stats['q3']:10.4g} "
                  f"{stats['spread']:7.3f} {bounds[name]:6.2f}")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
