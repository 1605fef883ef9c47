"""Human-facing telemetry rendering: phase breakdowns and live progress lines.

Everything here reads a :class:`~repro.obs.registry.MetricsSnapshot` (local or
merged across shards) and produces plain text for the CLIs' ``--live-stats``
output and the benchmarks' phase reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsSnapshot, parse_key

#: Preferred display order; unknown phases sort after these, alphabetically.
_PHASE_ORDER = (
    "setup",
    "generate",
    "render",
    "execute.target",
    "execute.reference",
    "judge",
    "settle",
    "sync",
    "sync.wait",
)


def phase_breakdown(
    snapshot: MetricsSnapshot,
) -> List[Tuple[str, float, int]]:
    """``[(phase, total_seconds, span_count)]`` in canonical phase order."""
    phases = snapshot.phase_seconds()

    def order(name: str) -> Tuple[int, str]:
        try:
            return (_PHASE_ORDER.index(name), name)
        except ValueError:
            return (len(_PHASE_ORDER), name)

    return [
        (name, phases[name][0], phases[name][1])
        for name in sorted(phases, key=order)
    ]


def phase_total_seconds(snapshot: MetricsSnapshot) -> float:
    """Sum of all span time in the snapshot (across shards when merged),
    sub-phases and spans overlapped by another process's excluded."""
    phases = snapshot.phase_seconds(overlapped=False)
    return _top_level_total([(name, seconds, count)
                             for name, (seconds, count) in phases.items()])


def _top_level_total(rows: List[Tuple[str, float, int]]) -> float:
    """The seconds of *rows* without sub-phases: a ``parent.child`` phase whose
    ``parent`` is recorded too (``sync.wait`` in ``sync``) is already inside
    its parent's time."""
    names = {name for name, _, _ in rows}
    return sum(seconds for name, seconds, _ in rows
               if name.rpartition(".")[0] not in names)


def worker_run_seconds(snapshot: MetricsSnapshot) -> float:
    """Total worker wall-clock (sum of per-shard ``worker.run.seconds``)."""
    state = snapshot.histograms.get("worker.run.seconds")
    return state.sum if state is not None else 0.0


def render_phase_breakdown(
    snapshot: Optional[MetricsSnapshot],
    wall_seconds: Optional[float] = None,
) -> str:
    """A fixed-width phase table; percentages are of total span time.

    When *wall_seconds* is given (or ``worker.run.seconds`` was recorded) a
    trailing line reports how much of the wall-clock the spans cover — the
    acceptance gauge for "phase spans sum to >= 90% of wall-clock".  Spans
    absorbed from a process that ran beside the campaign's (a differential
    checker's) are listed but cover none of it.
    """
    if snapshot is None:
        return "telemetry: no snapshot recorded"
    rows = phase_breakdown(snapshot)
    if not rows:
        return "telemetry: no phase spans recorded"
    total = _top_level_total(rows)
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'phase'.ljust(width)}  {'seconds':>10}  {'spans':>8}  {'%':>6}"]
    for name, seconds, count in rows:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(
            f"{name.ljust(width)}  {seconds:>10.3f}  {count:>8d}  {share:>5.1f}%"
        )
    lines.append(f"{'total'.ljust(width)}  {total:>10.3f}")
    wall = wall_seconds if wall_seconds is not None else worker_run_seconds(snapshot)
    if wall > 0:
        coverage = 100.0 * phase_total_seconds(snapshot) / wall
        lines.append(f"span coverage: {coverage:.1f}% of {wall:.3f}s wall-clock")
    return "\n".join(lines)


def _phase_percentages(snapshot: MetricsSnapshot) -> str:
    rows = phase_breakdown(snapshot)
    total = _top_level_total(rows)
    if total <= 0:
        return "n/a"
    parts: List[str] = []
    for name, seconds, _ in rows:
        share = 100.0 * seconds / total
        if share >= 0.5:
            parts.append(f"{name} {share:.0f}%")
    return " ".join(parts) if parts else "n/a"


def render_live_line(
    snapshot: MetricsSnapshot,
    elapsed_seconds: float,
    hour: Optional[int] = None,
    prefix: str = "",
    hours: Optional[int] = None,
) -> str:
    """One ``--live-stats`` status line from campaign counters + spans.

    Reports simulated-hours done, cumulative queries and queries/s (real
    seconds), novel-label count and rate per executed query, bug count, and
    the phase percentage mix.  *hour* names the hour a shard just finished,
    else *hours* the hours done (default: the ``campaign.hours`` counter).
    """
    generated = snapshot.counter_value("campaign.queries_generated")
    executed = snapshot.counter_value("campaign.queries_executed")
    labels = snapshot.counter_value("campaign.novel_labels")
    bugs = snapshot.counter_value("campaign.bugs")
    hours = snapshot.counter_value("campaign.hours") if hours is None else hours
    rate = executed / elapsed_seconds if elapsed_seconds > 0 else 0.0
    novelty = 100.0 * labels / executed if executed > 0 else 0.0
    head = f"{prefix} " if prefix else ""
    hour_text = f"hour {hour}" if hour is not None else f"hours {hours}"
    return (
        f"{head}[{hour_text}] {generated} generated / {executed} executed "
        f"({rate:.1f} q/s) | {labels} novel labels ({novelty:.1f}%) | "
        f"{bugs} bugs | phases: {_phase_percentages(snapshot)}"
    )


def error_counts(snapshot: MetricsSnapshot) -> Dict[str, int]:
    """Per-``{backend,kind}`` execute-error counters, keyed by series name."""
    return snapshot.counters_by_name("execute.errors")


def error_breakdown(snapshot: MetricsSnapshot) -> List[Dict[str, object]]:
    """``execute.errors`` series as records for the campaign JSON."""
    records: List[Dict[str, object]] = []
    for key in sorted(error_counts(snapshot)):
        _, series_labels = parse_key(key)
        records.append(
            {
                "backend": series_labels.get("backend", ""),
                "kind": series_labels.get("kind", ""),
                "count": snapshot.counters[key],
            }
        )
    return records
