"""Content-addressed cache for rendered SQL and reference result sets.

Differential campaigns recompute a lot of identical work: repeat campaigns and
multi-run benches re-execute the same generated queries against the same
dataset, and the reference side is the expensive one (``execute.reference``
dominates the phase breakdown).  :class:`QueryCache` is a small thread-safe
LRU that memoizes both halves:

* **result entries** — the bug-free reference :class:`~repro.engine.resultset.ResultSet`
  for one (canonical label, dataset fingerprint, canonical SQL);
* **render entries** — the dialect-specific SQL text a backend's renderer
  produced for one (backend, canonical SQL).

Every key is *content-addressed*: a SHA-256 over the canonical query text
(:meth:`~repro.plan.logical.QuerySpec.render` /
:meth:`~repro.plan.logical.CompoundQuerySpec.render`, the deterministic
reference rendering — covering the widened grammar too: set-operation
compounds, ``WITH`` wrappers and scalar subqueries all render canonically),
the :func:`dataset_fingerprint` of the exact table contents, and
the backend name.  Nothing identity- or ordering-dependent may
feed a key — no ``id()``, no ``hash()``, no raw dict iteration — which the
``DET003`` lint rule enforces over this module's import closure.  Canonical
keys are what make the determinism contract hold: cache-on and cache-off runs
produce bit-identical verdicts because a hit can only ever return exactly what
the miss path would have recomputed.

Hits, misses and evictions are counted in :mod:`repro.obs` as
``qcache.hits{kind=}`` / ``qcache.misses{kind=}`` / ``qcache.evictions{kind=}``
so campaign telemetry shows the cache working (or not).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Iterable, Tuple

from repro import obs
from repro.storage.database import Database

#: Lock discipline, checked by the CONC001 lint rule: the LRU dict is only
#: touched under the cache lock.
GUARDED_BY = {"QueryCache": ("_lock", ("_entries",))}

_SEPARATOR = b"\x1f"


def _digest(parts: Iterable[str]) -> str:
    """SHA-256 over *parts* with an unambiguous separator between fields."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(_SEPARATOR)
    return hasher.hexdigest()


def dataset_fingerprint(database: Database) -> str:
    """Content hash of *database*: schema and every stored row, in order.

    Table order follows the catalog (creation order), columns follow schema
    order, rows follow storage order — all deterministic products of the
    seeded DSG pipeline, so equal datasets fingerprint equally across
    processes and runs.
    """
    parts = ["dataset/v1"]
    for table_name in database.table_names:
        schema = database.table_schema(table_name)
        columns = list(schema.column_names)
        parts.append(table_name)
        parts.append(",".join(
            f"{name}:{schema.column(name).dtype!r}" for name in columns
        ))
        for stored in database.table(table_name).rows_as_tuples(columns):
            parts.append(repr(stored))
    return _digest(parts)


def result_cache_key(label: str, fingerprint: str, canonical_sql: str) -> str:
    """Cache key for a bug-free reference result set."""
    return _digest(("result/v2", label, fingerprint, canonical_sql))


def render_cache_key(backend: str, canonical_sql: str) -> str:
    """Cache key for one backend renderer's SQL text.

    Rendered SQL depends only on the query and the dialect, never on the
    dataset, so the fingerprint stays out of this key.
    """
    return _digest(("render/v1", backend, canonical_sql))


class QueryCache:
    """Thread-safe LRU mapping content-addressed keys to cached values.

    One instance may be shared by the reference oracle (result entries) and a
    backend adapter (render entries) — the key prefixes keep the namespaces
    apart — and by the worker threads of the execution pipeline.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(
                f"cache needs at least one entry, got max_entries={max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, kind: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for *key*; a hit refreshes LRU recency.

        *kind* ("result" / "render") only labels the telemetry counters.
        """
        with self._lock:
            if key in self._entries:
                value = self._entries[key]
                self._entries.move_to_end(key)
                hit = True
            else:
                value = None
                hit = False
        name = "qcache.hits" if hit else "qcache.misses"
        obs.get_registry().counter(name, kind=kind).inc()
        return hit, value

    def put(self, key: str, value: Any, kind: str) -> None:
        """Insert *value* under *key*, evicting least-recently-used overflow."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            obs.get_registry().counter("qcache.evictions", kind=kind).inc(evicted)

    def clear(self) -> None:
        """Drop every entry (counters are left alone)."""
        with self._lock:
            self._entries.clear()
