"""Text renderers for the paper's tables and figures.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting in one place so benchmarks, examples and tests all
produce the same human-readable output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro import obs
from repro.core.campaign import CampaignResult
from repro.engine.dialects import ALL_DIALECTS, DialectProfile


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned ASCII table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def render_series(title: str, hours: Sequence[int],
                  series: Mapping[str, Sequence[int]]) -> str:
    """Render per-hour series (one column per tool), Figure 8/9/10 style."""
    headers = ["hour"] + list(series)
    rows = []
    for index, hour in enumerate(hours):
        row = [hour] + [values[index] if index < len(values) else ""
                        for values in series.values()]
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_dbms_overview(dialects: Iterable[DialectProfile] = ALL_DIALECTS) -> str:
    """Table 3: the tested DBMSs."""
    rows = []
    for profile in dialects:
        rows.append(
            [
                profile.name,
                profile.version,
                profile.db_engines_rank if profile.db_engines_rank is not None else "-",
                profile.stack_overflow_rank
                if profile.stack_overflow_rank is not None else "-",
                f"{profile.github_stars_thousands}k"
                if profile.github_stars_thousands is not None else "-",
                f"{profile.loc_millions}M",
                profile.first_release,
                profile.bug_type_count,
            ]
        )
    headers = ["DBMS", "Version", "DB-Engines", "StackOverflow", "GitHub Stars",
               "LOC", "First Release", "Seeded bug types"]
    return render_table(headers, rows, title="Table 3: tested (simulated) DBMSs")


def render_detected_bugs(results: Mapping[str, CampaignResult]) -> str:
    """Table 4 summary: bugs and bug types per DBMS."""
    rows = []
    total_bugs = 0
    total_types = 0
    for dbms, result in results.items():
        final = result.final
        rows.append([dbms, result.tool, final.bug_count, final.bug_type_count,
                     final.isomorphic_sets, final.queries_generated])
        total_bugs += final.bug_count
        total_types += final.bug_type_count
    rows.append(["TOTAL", "", total_bugs, total_types, "", ""])
    headers = ["DBMS", "Tool", "Bugs", "Bug types", "Isomorphic sets", "Queries"]
    return render_table(headers, rows, title="Table 4: detected bugs per DBMS (24 simulated hours)")


def render_bug_type_details(result: CampaignResult,
                            dialect: DialectProfile) -> str:
    """Per-bug-type detail rows of Table 4 for one DBMS."""
    if result.bug_log is None:
        return "(no bug log)"
    rows = []
    for bug in dialect.bugs:
        incidents = result.bug_log.incidents_for_type(bug.bug_id)
        rows.append(
            [
                bug.bug_id,
                bug.status,
                bug.severity,
                "yes" if incidents else "no",
                len(incidents),
                bug.description[:64] + ("..." if len(bug.description) > 64 else ""),
            ]
        )
    headers = ["ID", "Status", "Severity", "Detected", "Incidents", "Description"]
    return render_table(headers, rows,
                        title=f"Table 4 detail: {dialect.name} {dialect.version}")


def render_ablation(results: Mapping[str, Mapping[str, CampaignResult]]) -> str:
    """Table 5: ablation over model composition."""
    rows = []
    for dbms, variants in results.items():
        for variant, result in variants.items():
            final = result.final
            rows.append([dbms, variant, final.isomorphic_sets, final.bug_count,
                         final.bug_type_count])
    headers = ["DBMS", "Approach", "Query graph diversity", "Bug count", "Bug types"]
    return render_table(headers, rows, title="Table 5: ablation test over model composition")


def render_worker_pool(outcome) -> str:
    """The outcome report ``run`` and ``serve`` print for one pool campaign.

    The per-shard and merged table, the merged per-hour series, the bug
    summary with the pool's totals, and the phase breakdown when telemetry
    was on.  *outcome* is a
    :class:`~repro.core.parallel.ParallelCampaignResult` (taken by duck type
    to keep this module import-light).
    """
    merged = outcome.merged
    named = [("shard %d" % shard_id, shard)
             for shard_id, shard in enumerate(outcome.shards)]
    rows = [
        [name, result.final.queries_generated, result.final.generations_rejected,
         result.final.isomorphic_sets, result.final.bug_count,
         result.final.bug_type_count]
        for name, result in named + [("MERGED", merged)]
    ]
    headers = ["worker", "queries", "rejected", "isomorphic sets", "bugs",
               "bug types"]
    title = (f"Parallel campaign: {outcome.workers} workers "
             f"({outcome.budget_policy} budgets), "
             f"{outcome.sync_rounds} sync rounds, "
             f"{outcome.elapsed_seconds:.1f}s wall clock")
    parts = [
        render_table(headers, rows, title=title),
        render_table(
            ["hour", "queries", "isomorphic sets", "bugs", "bug types", "rejected"],
            [[s.hour, s.queries_generated, s.isomorphic_sets, s.bug_count,
              s.bug_type_count, s.generations_rejected] for s in merged.samples],
            title=f"Merged per-hour series ({merged.tool} vs {merged.dbms})",
        ),
        f"{merged.bug_log.summary()}\n"
        f"{merged.final.queries_generated} queries in "
        f"{outcome.elapsed_seconds:.1f}s ({outcome.queries_per_second:.1f} q/s) "
        f"across {outcome.workers} workers ({outcome.budget_policy} budgets), "
        f"{outcome.sync_rounds} sync rounds, central index: "
        f"{outcome.central_index_size} entries / "
        f"{outcome.central_distinct_labels} distinct structures, "
        f"broadcasts: {outcome.broadcast_entries_sent} entries sent, "
        f"{outcome.broadcast_entries_suppressed} suppressed by novelty pruning",
    ]
    if outcome.telemetry is not None:
        parts.append(obs.render_phase_breakdown(
            obs.MetricsSnapshot.from_dict(outcome.telemetry)))
    return "\n\n".join(parts)


# ----------------------------------------------------- campaign JSON artifacts


def _bug_keys(result: CampaignResult) -> List[List[object]]:
    """The deduplicated (root cause, structure) bug keys, JSON-ready.

    Derived from the incident list rather than the log's internal key set so
    any :class:`CampaignResult` — including ones re-built from worker reports
    — serializes the same way.
    """
    if result.bug_log is None:
        return []
    keys = {
        (tuple(sorted(incident.root_cause)), incident.query_canonical_label)
        for incident in result.bug_log.incidents
    }
    return [[list(bug_ids), label] for bug_ids, label in sorted(keys)]


def parallel_result_to_dict(outcome, campaign: Optional[Dict] = None) -> Dict:
    """Serialize a parallel campaign outcome to a JSON-compatible dict.

    The ``summary`` block contains only seed-deterministic fields, so two runs
    of the same campaign — on the local pool or across machines — must
    produce equal summaries; ``python -m repro.distributed verify-local``
    leans on exactly that.
    Wall-clock timing, raw incidents and the campaign echo live outside it.
    """
    from dataclasses import asdict

    merged = outcome.merged
    shards = []
    # outcome.shards and outcome.sync_stats are both ordered by shard id (the
    # merge sorts reports), so zipping keeps labels right even when shard ids
    # are not contiguous; positional ids are only a fallback for outcomes
    # without sync stats.
    sync_stats = list(getattr(outcome, "sync_stats", []))
    for position, shard in enumerate(outcome.shards):
        stats = sync_stats[position] if position < len(sync_stats) else None
        shards.append(
            {
                "shard_id": stats.shard_id if stats else position,
                "tool": shard.tool,
                "dbms": shard.dbms,
                "dataset": shard.dataset,
                "final": asdict(shard.final),
                "bug_keys": _bug_keys(shard),
                "entries_shipped":
                    stats.entries_shipped if stats else 0,
                "broadcast_entries_received":
                    stats.broadcast_entries_received if stats else 0,
                "broadcast_entries_suppressed":
                    stats.broadcast_entries_suppressed if stats else 0,
                # The shard's per-hour budget series: the adaptive policy's
                # decisions hour by hour (a flat line under the even policy).
                "hourly_budgets":
                    list(stats.hourly_budgets) if stats else [],
            }
        )
    summary = {
        "workers": outcome.workers,
        "sync_rounds": outcome.sync_rounds,
        "budget_policy": getattr(outcome, "budget_policy", "even"),
        "central_index_size": outcome.central_index_size,
        "central_distinct_labels": outcome.central_distinct_labels,
        "broadcast_entries_sent": getattr(outcome, "broadcast_entries_sent", 0),
        "broadcast_entries_suppressed":
            getattr(outcome, "broadcast_entries_suppressed", 0),
        "merged": {
            "tool": merged.tool,
            "dbms": merged.dbms,
            "dataset": merged.dataset,
            "samples": [asdict(sample) for sample in merged.samples],
            "bug_keys": _bug_keys(merged),
        },
        "shards": shards,
    }
    incidents = []
    if merged.bug_log is not None:
        incidents = [asdict(incident) for incident in merged.bug_log.incidents]
    # Telemetry is wall-clock-dependent, so it lives OUTSIDE the summary block:
    # verify-local compares summaries only.
    telemetry = getattr(outcome, "telemetry", None)
    telemetry_block = None
    if telemetry is not None:
        from repro import obs

        snapshot = obs.MetricsSnapshot.from_dict(telemetry)
        telemetry_block = {
            "snapshot": telemetry,
            "phases": [
                {"phase": phase, "seconds": seconds, "count": count}
                for phase, seconds, count in obs.phase_breakdown(snapshot)
            ],
            "execute_errors": obs.error_breakdown(snapshot),
        }
    return {
        "campaign": campaign,
        "elapsed_seconds": outcome.elapsed_seconds,
        "summary": summary,
        "incidents": incidents,
        "telemetry": telemetry_block,
    }


def write_parallel_result_json(outcome, path: str,
                               campaign: Optional[Dict] = None) -> None:
    """Write :func:`parallel_result_to_dict` to *path* as pretty JSON."""
    import json

    payload = parallel_result_to_dict(outcome, campaign=campaign)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_differential_summary(result: CampaignResult,
                                max_incidents: int = 3) -> str:
    """Summary of one cross-engine differential campaign.

    Unlike the simulated campaigns, a real backend cannot announce root-cause
    fault ids, so this report leads with the raw mismatch evidence: per-hour
    totals plus the first few offending SQL statements.
    """
    final = result.final
    rows = [
        ["backend", result.dbms],
        ["dataset", result.dataset],
        ["hours", final.hour],
        ["queries generated", final.queries_generated],
        ["comparisons", final.queries_executed],
        ["isomorphic sets", final.isomorphic_sets],
        ["mismatches (bugs)", final.bug_count],
    ]
    text = render_table(["Metric", "Value"], rows,
                        title=f"Differential campaign: {result.tool} vs {result.dbms}")
    if result.bug_log is None or not result.bug_log.incidents:
        return text + "\n(no mismatches: backend agrees with the reference executor)"
    lines = [text, ""]
    for incident in result.bug_log.incidents[:max_incidents]:
        lines.append(
            f"mismatch ({incident.expected_rows} reference rows vs "
            f"{incident.observed_rows} backend rows):"
        )
        lines.append(incident.query_sql)
        lines.append("")
    remaining = len(result.bug_log.incidents) - max_incidents
    if remaining > 0:
        lines.append(f"... ({remaining} more incidents)")
    return "\n".join(lines).rstrip()
