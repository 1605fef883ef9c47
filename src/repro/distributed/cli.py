"""``python -m repro.distributed`` — run distributed campaigns over TCP.

Four subcommands:

``serve``
    Host the central KQE index server for one campaign: builds the same shard
    assignments the local pool would, waits for N clients to register,
    coordinates the stale-synchronous rounds (each sync receives the previous
    round's broadcast) with novelty pruning, merges the reports, prints the
    summary and optionally writes the campaign JSON.

``client``
    Connect to a server, receive a shard assignment, run it, upload the
    report.  Start one per machine (or per CI step).

``verify-local``
    Re-run the campaign recorded in a serve-produced JSON file through the
    local worker pool (which hosts its own loopback index server) and assert
    the summaries are identical — the distributed determinism contract,
    checkable post hoc from the artifact.

``fuzz``
    Throw N deterministic malformed frames (garbage, hostile lengths,
    truncations, flipped MAC bits, wrong keys) at a live server and verify it
    keeps serving — the protocol-robustness contract, checkable in CI.

``stats``
    Query a live server's STATS verb over an authenticated connection and
    print its health payload (registration/round progress, frame rejections,
    per-shard last-heard ages) plus the merged telemetry phase breakdown.

Every connection speaks protocol v5 (HMAC-authenticated JSON frames under a
shared ``--auth-key-file``).  ``serve`` takes the campaign flags of
``python -m repro.core.parallel``
(:func:`~repro.core.parallel.add_campaign_arguments`) and additionally
``--live-stats`` (one-line progress on stderr every 5 seconds and at the
end), ``--metrics-addr HOST:PORT`` (a Prometheus text endpoint) and
``--telemetry-output`` (dump the final merged telemetry snapshot as JSON).
Each campaign field is declared once, in
:class:`~repro.core.campaign.CampaignConfig` or
:class:`~repro.core.campaign.CampaignSpec`; serve's flags, its campaign echo
and verify-local's rebuild of that echo are all derived from the declaration,
and a campaign its kind cannot honour is refused before the server starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import ParallelCampaignConfig, obs, run_parallel_shards
from repro.core import (
    CampaignSpec,
    ShardSpec,
    budget_policy_from_name,
    finalize_parallel_result,
    sync_schedule,
)
from repro.core.parallel import (
    add_campaign_arguments,
    campaign_flags,
    campaign_shards,
    campaign_spec,
)
from repro.distributed.protocol import load_auth_key
from repro.errors import CampaignError


def _add_auth_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--auth-key-file",
        default="",
        help="file holding the shared secret that authenticates the "
        "protocol's frames; both serve and clients must use the same key",
    )


def _auth_key(args: argparse.Namespace) -> Optional[bytes]:
    return load_auth_key(args.auth_key_file) if args.auth_key_file else None


def _campaign_echo(spec: CampaignSpec, args: argparse.Namespace) -> Dict[str, Any]:
    """The campaign invocation, embedded in the JSON so verify-local can rerun it.

    One key per campaign flag (its dest, so :func:`campaign_spec` reads the
    echo back like parsed arguments) plus the three deployment knobs.
    """
    echo = {dest: getattr(spec, declared.name) for declared, dest in campaign_flags()}
    echo.update(
        sync_interval=args.sync_interval,
        prune=not args.no_prune,
        budget_policy=args.budget_policy,
    )
    return echo


def _checked_shards(
    campaign: argparse.Namespace,
) -> Tuple[CampaignSpec, List[ShardSpec]]:
    """The campaign's spec and shards; a refused campaign exits before any start."""
    try:
        spec = campaign_spec(campaign)
        return spec, campaign_shards(spec)
    except CampaignError as exc:
        raise SystemExit(f"campaign rejected: {exc}") from None


def _parse_metrics_addr(value: str) -> tuple:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--metrics-addr must be HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import (
        parallel_result_to_dict,
        render_worker_pool,
        write_parallel_result_json,
    )
    from repro.distributed.server import IndexServer, live_stats

    spec, shards = _checked_shards(args)
    server = IndexServer(
        shards=shards,
        sync_hours=sync_schedule(spec.hours, args.sync_interval),
        host=args.host,
        port=args.port,
        prune=not args.no_prune,
        round_timeout=args.round_timeout,
        budget_policy=budget_policy_from_name(args.budget_policy),
        auth_key=_auth_key(args),
        evict_dead_clients=args.evict_dead_clients,
        snapshot_dir=args.snapshot_dir,
    )
    server.start()
    auth = "on" if args.auth_key_file else "off"
    print(
        f"index server listening on {server.host}:{server.port} "
        f"(expecting {len(shards)} clients, "
        f"auth {auth}, novelty pruning {'off' if args.no_prune else 'on'})",
        flush=True,
    )
    if args.snapshot_dir:
        print(
            f"snapshot log in {args.snapshot_dir}: "
            f"{server.restored_rounds} round(s) restored",
            flush=True,
        )
    start = time.perf_counter()
    metrics_http = None
    if args.metrics_addr:
        from repro.obs import MetricsHTTPServer

        mhost, mport = _parse_metrics_addr(args.metrics_addr)
        metrics_http = MetricsHTTPServer(mhost, mport, server.render_prometheus)
        metrics_http.start()
        bound_host, bound_port = metrics_http.address
        print(
            f"prometheus metrics at http://{bound_host}:{bound_port}/metrics",
            flush=True,
        )
    try:
        with live_stats(server, prefix="server") if args.live_stats else nullcontext():
            completed = server.wait(args.serve_timeout)
        if not completed:
            server.fail(f"no complete campaign within {args.serve_timeout:.0f}s")
        if server.failure is not None:
            print(f"campaign failed: {server.failure}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        outcome = finalize_parallel_result(
            list(server.reports.values()),
            server.coordinator,
            workers=len(shards),
            sync_rounds=len(server.sync_hours),
            elapsed_seconds=elapsed,
            budget_policy=args.budget_policy,
        )
        server_stats = server.stats_payload()
    finally:
        if metrics_http is not None:
            metrics_http.stop()
        server.stop()
    print(render_worker_pool(outcome))
    if outcome.telemetry is not None:
        print()
        print(
            obs.render_phase_breakdown(obs.MetricsSnapshot.from_dict(outcome.telemetry))
        )
    print(
        f"broadcasts: {outcome.broadcast_entries_sent} entries sent, "
        f"{outcome.broadcast_entries_suppressed} suppressed by novelty pruning"
    )
    for shard_id, reason in sorted(server.evicted.items()):
        print(f"evicted shard {shard_id}: {reason}", file=sys.stderr)
    if server.frames_rejected:
        print(
            f"rejected {server.frames_rejected} malformed/unauthenticated "
            "frame(s); the offending connections were closed",
            file=sys.stderr,
        )
    campaign = _campaign_echo(spec, args)
    if server.evicted:
        # Record the evictions in the artifact: the merge covers only the
        # survivors, and verify-local must know it is not looking at a
        # healthy fixed-worker campaign.
        campaign["evicted"] = {
            str(sid): reason for sid, reason in sorted(server.evicted.items())
        }
    if args.output:
        write_parallel_result_json(outcome, args.output, campaign=campaign)
        print(f"campaign JSON written to {args.output}")
    else:
        # Keep stdout machine-checkable even without an output file.
        summary = parallel_result_to_dict(outcome, campaign=campaign)
        print(json.dumps(summary["summary"]["merged"]["samples"][-1], sort_keys=True))
    if args.telemetry_output:
        with open(args.telemetry_output, "w", encoding="utf-8") as handle:
            json.dump(
                {"server": server_stats, "telemetry": outcome.telemetry},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"telemetry snapshot written to {args.telemetry_output}")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.distributed.client import run_remote_client

    report = run_remote_client(
        args.host,
        args.port,
        connect_timeout=args.connect_timeout,
        io_timeout=args.io_timeout,
        auth_key=_auth_key(args),
        live_stats=args.live_stats,
    )
    final = report.samples[-1]
    print(
        f"shard {report.shard_id} done ({report.tool} vs {report.dbms} on "
        f"{report.dataset}): {final.queries_generated} queries, "
        f"{final.isomorphic_sets} isomorphic sets, {final.bug_count} bugs; "
        f"shipped {report.entries_shipped} index entries, received "
        f"{report.broadcast_entries_received} "
        f"(+{report.broadcast_entries_suppressed} suppressed as already known)"
    )
    return 0


def _cmd_verify_local(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import parallel_result_to_dict

    with open(args.json, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    campaign = recorded.get("campaign")
    if not campaign:
        print("JSON file carries no campaign block; cannot re-run", file=sys.stderr)
        return 2
    evicted = campaign.get("evicted")
    if evicted:
        details = "; ".join(
            f"shard {sid}: {reason}" for sid, reason in sorted(evicted.items())
        )
        print(
            f"recorded campaign evicted client(s) mid-run ({details}); the "
            "merge covers only the survivors, so no healthy local pool "
            "can reproduce it — nothing to verify",
            file=sys.stderr,
        )
        return 2
    _, shards = _checked_shards(argparse.Namespace(**campaign))
    outcome = run_parallel_shards(
        shards,
        ParallelCampaignConfig(
            sync_interval=campaign["sync_interval"],
            worker_timeout=args.worker_timeout,
            prune_broadcasts=campaign["prune"],
            budget_policy=campaign.get("budget_policy", "even"),
        ),
    )
    local = parallel_result_to_dict(outcome, campaign=campaign)
    mismatches = _diff_summaries(recorded["summary"], local["summary"])
    if mismatches:
        print("distributed result DIFFERS from the local pool:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    merged = recorded["summary"]["merged"]["samples"][-1]
    print(
        "verified: recorded campaign matches the local pool "
        f"({merged['queries_generated']} queries, "
        f"{merged['isomorphic_sets']} isomorphic sets, "
        f"{merged['bug_count']} bugs)"
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.distributed.testing import fuzz_server

    stats = fuzz_server(
        args.host,
        args.port,
        frames=args.frames,
        seed=args.seed,
        auth_key=_auth_key(args),
    )
    total = sum(stats.values())
    kinds = ", ".join(f"{kind} x{count}" for kind, count in sorted(stats.items()))
    probe = (
        "answered an authenticated probe"
        if args.auth_key_file
        else "kept accepting connections"
    )
    print(f"server survived {total} malformed frames ({kinds}) and {probe}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.distributed.client import fetch_stats

    stats = fetch_stats(
        args.host,
        args.port,
        connect_timeout=args.connect_timeout,
        auth_key=_auth_key(args),
    )
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    registered = stats.get("registered_shards") or []
    print(
        f"index server: {len(registered)}/{stats.get('expected_shards')} shards "
        f"registered, {stats.get('reports_received')} reports, "
        f"{stats.get('rounds_completed')}/{stats.get('sync_rounds_scheduled')} "
        "sync rounds completed"
    )
    print(
        f"frames rejected: {stats.get('frames_rejected', 0)}; "
        f"evictions: {stats.get('eviction_count', 0)}; "
        f"completed: {stats.get('completed')}"
    )
    ages = stats.get("shard_last_heard_seconds") or {}
    for sid in sorted(ages, key=int):
        print(f"  shard {sid}: last heard {ages[sid]:.1f}s ago")
    telemetry = stats.get("telemetry")
    if telemetry:
        print()
        print(obs.render_phase_breakdown(obs.MetricsSnapshot.from_dict(telemetry)))
    return 0


def _diff_summaries(recorded: Any, local: Any, path: str = "") -> List[str]:
    """Human-readable paths at which two summary trees disagree."""
    if isinstance(recorded, dict) and isinstance(local, dict):
        lines: List[str] = []
        for key in sorted(set(recorded) | set(local)):
            lines.extend(
                _diff_summaries(
                    recorded.get(key), local.get(key), f"{path}.{key}" if path else key
                )
            )
        return lines
    if isinstance(recorded, list) and isinstance(local, list):
        if len(recorded) != len(local):
            return [f"{path}: {len(recorded)} entries vs {len(local)}"]
        lines = []
        for index, (left, right) in enumerate(zip(recorded, local)):
            lines.extend(_diff_summaries(left, right, f"{path}[{index}]"))
        return lines
    if recorded != local:
        return [f"{path}: {recorded!r} vs {local!r}"]
    return []


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.distributed``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed",
        description="Distributed KQE index server and campaign clients over TCP.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve = subparsers.add_parser("serve", help="host the central index server")
    add_campaign_arguments(serve, workers=2)
    _add_auth_argument(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port; 0 = ephemeral (default: 0)"
    )
    serve.add_argument(
        "--round-timeout",
        type=float,
        default=300.0,
        help="seconds an open sync round waits for its laggards before they "
        "are declared stalled (default: 300)",
    )
    serve.add_argument(
        "--evict-dead-clients",
        action="store_true",
        help="evict stalled/dead clients (redistributing their per-hour "
        "budget to the survivors) instead of failing the whole campaign",
    )
    serve.add_argument(
        "--serve-timeout",
        type=float,
        default=1800.0,
        help="overall deadline for the campaign (default: 1800)",
    )
    serve.add_argument(
        "--output", default="", help="write the merged campaign JSON to this path"
    )
    serve.add_argument(
        "--live-stats",
        action="store_true",
        help="print a one-line progress summary (merged worker telemetry) to "
        "stderr every 5 seconds while the campaign runs and once more at the end",
    )
    serve.add_argument(
        "--metrics-addr",
        default="",
        help="serve Prometheus text metrics over HTTP at HOST:PORT for the "
        "campaign's duration (port 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--telemetry-output",
        default="",
        help="write the final server stats payload and merged telemetry "
        "snapshot as JSON to this path",
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="persist every completed sync round to a checksummed log in "
        "this directory and, on start, replay any rounds a previous server "
        "for the same campaign already completed — a killed server can be "
        "restarted mid-campaign with bit-identical results",
    )
    serve.set_defaults(func=_cmd_serve)

    client = subparsers.add_parser("client", help="run one campaign shard")
    _add_auth_argument(client)
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=int, required=True, help="server port")
    client.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="seconds to keep retrying the initial connection (default: 60)",
    )
    client.add_argument(
        "--io-timeout",
        type=float,
        default=600.0,
        help="socket timeout for sync barriers (default: 600)",
    )
    client.add_argument(
        "--live-stats",
        action="store_true",
        help="print a one-line progress summary to stderr after every "
        "campaign hour",
    )
    client.set_defaults(func=_cmd_client)

    verify = subparsers.add_parser(
        "verify-local",
        help="re-run a recorded campaign on the local pool and compare results",
    )
    verify.add_argument("--json", required=True, help="serve-produced JSON file")
    verify.add_argument(
        "--worker-timeout",
        type=float,
        default=300.0,
        help="seconds an open sync round of the verification pool waits for "
        "its laggards before they are declared stalled (default: 300)",
    )
    verify.set_defaults(func=_cmd_verify_local)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="throw malformed frames at a live server; it must keep serving",
    )
    # The key here only feeds the final authenticated liveness probe.
    fuzz.add_argument(
        "--auth-key-file",
        default="",
        help="the server's auth key; when given, a final authenticated probe "
        "asserts the server still answers real clients",
    )
    fuzz.add_argument("--host", default="127.0.0.1", help="server address")
    fuzz.add_argument("--port", type=int, required=True, help="server port")
    fuzz.add_argument(
        "--frames",
        type=int,
        default=50,
        help="how many malformed frames to send (default: 50)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the deterministic malformed-frame stream (default: 0)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    stats = subparsers.add_parser(
        "stats",
        help="query a live server's STATS verb and print health + telemetry",
    )
    _add_auth_argument(stats)
    stats.add_argument("--host", default="127.0.0.1", help="server address")
    stats.add_argument("--port", type=int, required=True, help="server port")
    stats.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to keep retrying the connection (default: 10)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw stats payload as JSON instead of the summary",
    )
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
