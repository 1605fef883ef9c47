"""Outside-in per-layer trace: timing wrappers installed on the program's classes.

The benchmark does not rely on spans inside the program.  Before a traced
campaign starts, :func:`install` replaces the layer-boundary methods listed in
``LAYERS`` with wrappers that time each call and record it through the public
``repro.obs`` API (``observe_phase`` plus counters).  Forked pool workers
inherit the wrappers, and the pool's own telemetry merge
(``WorkerReport.telemetry``) brings their spans home.

Each span records *self* seconds: a wrapper subtracts the time its nested
wrapped calls took, so the per-layer seconds add up to the traced time without
double counting.  A call that re-enters the span it is already inside (a set
operation executing its arms, say) is counted once, by the outer call.

Socket reads inside a frame decode are a *hole*: their time is taken out of
the decode span and left with the caller, so ``distributed.wire`` is codec
work only and ``distributed.sync`` keeps the barrier wait.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.backends.sqlbase import RenderedSQLBackend
from repro.core.differential import DifferentialOracle
from repro.distributed import protocol
from repro.distributed.client import RemoteSyncTransport
from repro.distributed.coordinator import CentralCoordinator
from repro.dsg.ground_truth import GroundTruth
from repro.dsg.pipeline import DSG
from repro.engine.engine import Engine
from repro.errors import GenerationError
from repro.kqe.explorer import KQE
from repro.kqe.query_graph import QueryGraph, QueryGraphBuilder

#: Histogram that holds the campaign-loop wall time, the coverage denominator.
LOOP_WALL = "bench.loop.wall"
#: The span around the whole campaign loop; its self time is what no layer
#: span covered.
LOOP_SPAN = "bench.loop"


def _is_target(engine: Engine) -> bool:
    return engine.dialect is not None


def _is_reference(engine: Engine) -> bool:
    return engine.dialect is None


#: (owner, attribute, span name, call filter).  A filter that rejects the
#: call leaves it to the enclosing span: the reference engine runs its rows
#: through ``execute_with_report``, which is reference time, not target time.
LAYERS: Tuple[Tuple[Any, str, str, Optional[Callable[[Any], bool]]], ...] = (
    (DSG, "__init__", "dsg.build", None),
    (DSG, "generate_query", "dsg.generate", None),
    (DSG, "generate_statement", "dsg.generate", None),
    (DSG, "transform_query", "dsg.transform", None),
    (DSG, "ground_truth", "dsg.ground_truth", None),
    (RenderedSQLBackend, "load_schema", "backends.deploy", None),
    (RenderedSQLBackend, "load_data", "backends.deploy", None),
    (RenderedSQLBackend, "execute", "backends.execute", None),
    (QueryGraphBuilder, "build", "kqe.label", None),
    (QueryGraph, "canonical_label", "kqe.label", None),
    (KQE, "register", "kqe.register", None),
    (Engine, "execute_with_report", "engine.target", _is_target),
    (Engine, "execute", "engine.reference", _is_reference),
    (GroundTruth, "matches", "core.judge", None),
    (DifferentialOracle, "judge", "core.judge", None),
    (RemoteSyncTransport, "sync", "distributed.sync", None),
    (CentralCoordinator, "complete_round", "distributed.round", None),
    (protocol.JsonFrameCodec, "encode", "distributed.wire", None),
    (protocol.JsonFrameCodec, "recv", "distributed.wire", None),
)


class _Frame:
    __slots__ = ("name", "child", "hole")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0
        self.hole = 0.0


_local = threading.local()


def _stack() -> List[_Frame]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _enter(name: str) -> Tuple[_Frame, float]:
    frame = _Frame(name)
    _stack().append(frame)
    return frame, time.perf_counter()


def _leave(frame: _Frame, start: float) -> float:
    """Pop *frame*, record its self seconds and return its wall seconds."""
    elapsed = time.perf_counter() - start
    stack = _stack()
    stack.pop()
    if stack:
        stack[-1].child += elapsed - frame.hole
    obs.get_registry().observe_phase(
        frame.name, elapsed - frame.child - frame.hole)
    return elapsed


def _span(name: str, fn: Callable, accept: Optional[Callable[[Any], bool]]
          ) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        if (stack and stack[-1].name == name) or (
                accept is not None and not accept(args[0])):
            return fn(*args, **kwargs)
        frame, start = _enter(name)
        try:
            result = fn(*args, **kwargs)
        except GenerationError:
            obs.get_registry().counter(name + ".rejected").inc()
            raise
        finally:
            _leave(frame, start)
        if isinstance(result, bytes):  # an encoded frame
            obs.get_registry().counter(name + "_bytes").inc(len(result))
        return result

    return wrapper


def _hole(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stack = _stack()
            if stack:
                stack[-1].hole += time.perf_counter() - start

    return wrapper


def loop_span(fn: Callable) -> Callable:
    """Wrap a campaign-loop function so its wall and uncovered time land in obs."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame, start = _enter(LOOP_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            obs.get_registry().histogram(LOOP_WALL).observe(
                _leave(frame, start))

    return wrapper


class Installed:
    """The originals replaced by :func:`install`, restored by :meth:`remove`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install() -> Installed:
    """Wrap every layer boundary in ``LAYERS``; returns the undo handle."""
    installed = Installed()
    for owner, attribute, name, accept in LAYERS:
        installed.patch(owner, attribute,
                        _span(name, owner.__dict__[attribute], accept))
    installed.patch(protocol, "_recv_component",
                    _hole(protocol._recv_component))
    return installed


def per_layer(snapshot: obs.MetricsSnapshot, generated: int, labels: int,
              traced_loop_s: float, untraced_loop_s: float
              ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run as ``{name: (value, unit)}``.

    Seconds are self seconds summed over every process and thread of the
    run.  *generated* and *labels* are the traced campaigns' query and
    distinct label counts.  *traced_loop_s* and *untraced_loop_s* are the
    loop wall times of the same campaigns with tracing on and off, measured
    the same way; their ratio is ``trace.overhead``.
    """
    phases = snapshot.phase_seconds()

    def seconds(name: str) -> Tuple[float, str]:
        return phases.get(name, (0.0, 0))[0], "s"

    def calls(name: str) -> Tuple[float, str]:
        return phases.get(name, (0.0, 0))[1], "count"

    def ratio(part: float, whole: float) -> Tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    loop_wall = sum(state.sum for key, state in snapshot.histograms.items()
                    if obs.parse_key(key)[0] == LOOP_WALL)
    uncovered = phases.get(LOOP_SPAN, (0.0, 0))[0]
    return {
        "dsg.build_s": seconds("dsg.build"),
        "backends.deploy_s": seconds("backends.deploy"),
        "dsg.generate_s": seconds("dsg.generate"),
        "dsg.generate_calls": calls("dsg.generate"),
        "dsg.rejected_ratio": ratio(
            snapshot.counter_value("dsg.generate.rejected"),
            calls("dsg.generate")[0]),
        "kqe.label_s": seconds("kqe.label"),
        "kqe.register_s": seconds("kqe.register"),
        "kqe.novel_ratio": ratio(labels, generated),
        "dsg.transform_s": seconds("dsg.transform"),
        "dsg.ground_truth_s": seconds("dsg.ground_truth"),
        "engine.target_s": seconds("engine.target"),
        "engine.target_calls": calls("engine.target"),
        "engine.reference_s": seconds("engine.reference"),
        "engine.reference_calls": calls("engine.reference"),
        "backends.execute_s": seconds("backends.execute"),
        "core.judge_s": seconds("core.judge"),
        "distributed.sync_s": seconds("distributed.sync"),
        "distributed.round_s": seconds("distributed.round"),
        "distributed.wire_s": seconds("distributed.wire"),
        "distributed.wire_bytes": (
            snapshot.counter_value("distributed.wire_bytes"), "bytes"),
        "trace.coverage": ratio(loop_wall - uncovered, loop_wall),
        "trace.overhead": ratio(traced_loop_s - untraced_loop_s,
                                untraced_loop_s),
    }
