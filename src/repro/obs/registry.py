"""Process-local metrics registry: counters, gauges, histograms, phase spans.

The telemetry layer is deliberately dependency-free (stdlib only) and cheap on
the hot path: every instrument is a tiny object guarded by one registry-wide
lock, handles are memoized per ``name{labels}`` key, and a campaign iteration
costs a handful of dict lookups plus two ``perf_counter`` calls per span.

Three design constraints shape the API:

* **Determinism** — telemetry must never influence campaign results, so no
  instrument feeds back into any seeded decision, and the whole subsystem can
  be swapped for :class:`NullRegistry` no-ops via :func:`set_enabled` (the
  telemetry-on vs. telemetry-off regression test relies on this).
* **Mergeability** — workers snapshot their registry and ship it over the
  sync transports; the coordinator folds per-shard snapshots together.  The
  merge is associative and commutative (counters and histograms sum, gauges
  take the max), so arrival order cannot change the aggregate.
* **Serializability** — :meth:`MetricsSnapshot.to_dict` is plain
  JSON-compatible data with deterministically ordered keys, round-tripped by
  the strict codecs in :mod:`repro.distributed.wire`.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from types import TracebackType
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.errors import TelemetryError

#: Lock discipline, enforced by `python -m repro.lint` (CONC001): instrument
#: maps are shared across every campaign thread and may only be touched
#: inside ``with self._lock:``.
GUARDED_BY = {
    "MetricsRegistry": ("_lock", ("_counters", "_gauges", "_histograms")),
}

#: Histogram family that every :func:`MetricsRegistry.span` records into,
#: labeled with ``phase=<name>``.
PHASE_HISTOGRAM = "phase.seconds"

#: Label :meth:`MetricsRegistry.absorb` puts on another process's phase
#: spans: they ran beside this process's spans, not inside its wall-clock.
OVERLAPPED_LABEL = "overlapped"

#: Default latency buckets (seconds) — sub-millisecond through one minute,
#: roughly log-spaced like Prometheus' defaults.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def format_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical instrument key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not name or "{" in name or "}" in name:
        raise TelemetryError(f"invalid metric name {name!r}")
    if not labels:
        return name
    parts: List[str] = []
    for key in sorted(labels):
        value = str(labels[key])
        if any(ch in key for ch in "{},=") or any(ch in value for ch in "{},="):
            raise TelemetryError(f"invalid label {key!r}={value!r} for {name!r}")
        parts.append(f"{key}={value}")
    return name + "{" + ",".join(parts) + "}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`format_key`: split a key into ``(name, labels)``."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time float; merges take the max across processes."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def max(self, value: float) -> None:
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Fixed upper-bound buckets plus a running sum and count.

    ``bounds`` are the finite inclusive upper edges (``le`` semantics, as in
    Prometheus); ``counts`` has one extra trailing slot for the +Inf overflow
    bucket.  Counts are per-bucket (non-cumulative) so merging is element-wise
    addition; exposition cumulates on render.
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(
            bounds
        ):
            raise TelemetryError(f"histogram bounds must be ascending: {bounds!r}")
        self._lock = lock
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


@dataclass(frozen=True)
class HistogramState:
    """Immutable snapshot of one histogram."""

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, value: Mapping[str, object]) -> "HistogramState":
        bounds = tuple(float(b) for b in value["bounds"])  # type: ignore[index]
        counts = tuple(int(c) for c in value["counts"])  # type: ignore[index]
        if len(counts) != len(bounds) + 1:
            raise TelemetryError(
                f"histogram counts/bounds mismatch: {len(counts)} vs {len(bounds)}"
            )
        return cls(bounds, counts, float(value["sum"]), int(value["count"]))

    def merge(self, other: "HistogramState") -> "HistogramState":
        if self.bounds != other.bounds:
            raise TelemetryError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds!r} vs {other.bounds!r}"
            )
        return HistogramState(
            self.bounds,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.sum + other.sum,
            self.count + other.count,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time copy of a registry, mergeable and wire-serializable."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramState] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-compatible dict with deterministically sorted keys."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(
        cls, value: Optional[Mapping[str, object]]
    ) -> "MetricsSnapshot":
        if value is None:
            return cls()
        return cls(
            counters={str(k): int(v) for k, v in value.get("counters", {}).items()},  # type: ignore[union-attr]
            gauges={str(k): float(v) for k, v in value.get("gauges", {}).items()},  # type: ignore[union-attr]
            histograms={
                str(k): HistogramState.from_dict(v)
                for k, v in value.get("histograms", {}).items()  # type: ignore[union-attr]
            },
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Associative + commutative fold; the empty snapshot is the identity."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges.get(key, value), value)
        histograms = dict(self.histograms)
        for key, state in other.histograms.items():
            existing = histograms.get(key)
            histograms[key] = state if existing is None else existing.merge(state)
        return MetricsSnapshot(counters, gauges, histograms)

    @classmethod
    def merge_all(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        merged = cls()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    # ------------------------------------------------------------- accessors

    def counter_value(self, name: str, **labels: object) -> int:
        return self.counters.get(format_key(name, labels), 0)

    def phase_seconds(self, overlapped: bool = True) -> Dict[str, Tuple[float, int]]:
        """``{phase: (total_seconds, span_count)}`` from the span histograms.

        Without *overlapped*, the spans absorbed from another process
        (labelled :data:`OVERLAPPED_LABEL`) are left out.
        """
        phases: Dict[str, Tuple[float, int]] = {}
        for key, state in self.histograms.items():
            name, labels = parse_key(key)
            if name != PHASE_HISTOGRAM or "phase" not in labels:
                continue
            if not overlapped and OVERLAPPED_LABEL in labels:
                continue
            seconds, count = phases.get(labels["phase"], (0.0, 0))
            phases[labels["phase"]] = (seconds + state.sum, count + state.count)
        return phases

    def counters_by_name(self, name: str) -> Dict[str, int]:
        """All series of one counter family, keyed by full ``name{labels}``."""
        out: Dict[str, int] = {}
        for key, value in self.counters.items():
            if parse_key(key)[0] == name:
                out[key] = value
        return out


class _Span:
    """Context manager timing one phase into ``phase.seconds{phase=...}``."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._registry.observe_phase(
            self._name, time.perf_counter() - self._start
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        pass


class MetricsRegistry:
    """Named, labeled instruments behind one lock; snapshot at any time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ----------------------------------------------------------- instruments

    def counter(self, name: str, **labels: object) -> Counter:
        key = format_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(self._lock)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = format_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(self._lock)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        key = format_key(name, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(self._lock, bounds)
            elif buckets is not None and instrument.bounds != bounds:
                raise TelemetryError(
                    f"histogram {key!r} already registered with different "
                    f"buckets: {instrument.bounds!r} vs {bounds!r}"
                )
        return instrument

    # ----------------------------------------------------------------- spans

    def span(self, name: str) -> Union[_Span, _NullSpan]:
        """Time a phase; the elapsed seconds land in ``phase.seconds{phase=}``."""
        return _Span(self, name)

    def observe_phase(self, name: str, seconds: float) -> None:
        self.histogram(PHASE_HISTOGRAM, phase=name).observe(seconds)

    # -------------------------------------------------------------- snapshot

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold another process's *snapshot* into this live registry.

        The same fold as :meth:`MetricsSnapshot.merge`: counters and
        histograms add, gauges take the max.  The other process's phase
        spans ran beside this one's, so they are labelled
        :data:`OVERLAPPED_LABEL`: :meth:`MetricsSnapshot.phase_seconds`
        counts them, span coverage of this process's wall-clock does not.
        """
        with self._lock:
            for key, value in snapshot.counters.items():
                counter = self._counters.get(key)
                if counter is None:
                    counter = self._counters[key] = Counter(self._lock)
                counter.value += value
            for key, level in snapshot.gauges.items():
                gauge = self._gauges.get(key)
                if gauge is None:
                    gauge = self._gauges[key] = Gauge(self._lock)
                    gauge.value = level
                else:
                    gauge.value = max(gauge.value, level)
            for key, state in snapshot.histograms.items():
                name, labels = parse_key(key)
                if name == PHASE_HISTOGRAM:
                    key = format_key(name, dict(labels, **{OVERLAPPED_LABEL: 1}))
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = Histogram(
                        self._lock, state.bounds)
                elif histogram.bounds != state.bounds:
                    raise TelemetryError(
                        f"cannot absorb histogram {key!r} with different "
                        f"buckets: {histogram.bounds!r} vs {state.bounds!r}")
                histogram.counts = [a + b for a, b in
                                    zip(histogram.counts, state.counts)]
                histogram.sum += state.sum
                histogram.count += state.count

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = {k: c.value for k, c in self._counters.items()}
            gauges = {k: g.value for k, g in self._gauges.items()}
            histograms = {
                k: HistogramState(h.bounds, tuple(h.counts), h.sum, h.count)
                for k, h in self._histograms.items()
            }
        return MetricsSnapshot(counters, gauges, histograms)


class _NullInstrument:
    """Absorbs every instrument method as a no-op."""

    __slots__ = ()
    value = 0
    sum = 0.0
    count = 0
    bounds: Tuple[float, ...] = ()
    counts: List[int] = []

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose instruments and spans do nothing.

    Swapped in by :func:`set_enabled` so disabling telemetry removes even the
    per-call lock traffic, and instrumented code needs no ``if enabled:``
    branches.
    """

    _NULL = _NullInstrument()
    _NULL_SPAN = _NullSpan()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: object) -> "_NullInstrument":  # type: ignore[override]
        return self._NULL

    def gauge(self, name: str, **labels: object) -> "_NullInstrument":  # type: ignore[override]
        return self._NULL

    def histogram(  # type: ignore[override]
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> "_NullInstrument":
        return self._NULL

    def span(self, name: str) -> "_NullSpan":
        return self._NULL_SPAN

    def observe_phase(self, name: str, seconds: float) -> None:
        pass

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        pass


# ------------------------------------------------------- module-level registry

_NULL_REGISTRY = NullRegistry()
_registry = MetricsRegistry()
_enabled = True


def get_registry() -> MetricsRegistry:
    """The process-global registry (a shared no-op registry when disabled)."""
    return _registry if _enabled else _NULL_REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh one (worker-process startup).

    Fork-start workers inherit the parent's registry state; resetting at the
    top of the worker body keeps each shard's snapshot self-contained.
    """
    global _registry
    _registry = MetricsRegistry()
    return _registry


def set_enabled(enabled: bool) -> bool:
    """Enable/disable telemetry globally; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def telemetry_enabled() -> bool:
    return _enabled


def span(name: str) -> Union[_Span, _NullSpan]:
    """Shorthand for ``get_registry().span(name)``."""
    return get_registry().span(name)


def snapshot_dict() -> Optional[Dict[str, object]]:
    """The global registry's snapshot as a plain dict, or None when empty/off.

    This is what workers attach to sync rounds and ``WorkerReport``s: None
    compresses the common disabled case to nothing on the wire.
    """
    if not _enabled:
        return None
    snapshot = _registry.snapshot()
    if not snapshot.counters and not snapshot.gauges and not snapshot.histograms:
        return None
    return snapshot.to_dict()
