"""Telemetry subsystem: metrics registry, phase spans, exposition, live stats.

Dependency-free (stdlib only).  Typical hot-path usage::

    from repro import obs

    with obs.span("generate"):
        query = generator.generate()
    obs.get_registry().counter("execute.errors", backend="sqlite", kind="BackendError").inc()

Workers ship ``obs.snapshot_dict()`` through the sync transports; coordinators
fold the per-shard snapshots with :meth:`MetricsSnapshot.merge` and the CLIs
render them via :func:`render_phase_breakdown` / :func:`render_live_line`.
"""

from repro.obs.exposition import (
    MetricsHTTPServer,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.obs.live import (
    error_breakdown,
    error_counts,
    phase_breakdown,
    phase_total_seconds,
    render_live_line,
    render_phase_breakdown,
    worker_run_seconds,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    OVERLAPPED_LABEL,
    PHASE_HISTOGRAM,
    format_key,
    get_registry,
    parse_key,
    reset_registry,
    set_enabled,
    snapshot_dict,
    span,
    telemetry_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "OVERLAPPED_LABEL",
    "PHASE_HISTOGRAM",
    "PROMETHEUS_CONTENT_TYPE",
    "error_breakdown",
    "error_counts",
    "format_key",
    "get_registry",
    "parse_key",
    "phase_breakdown",
    "phase_total_seconds",
    "render_live_line",
    "render_phase_breakdown",
    "render_prometheus",
    "reset_registry",
    "set_enabled",
    "snapshot_dict",
    "span",
    "telemetry_enabled",
    "worker_run_seconds",
]
