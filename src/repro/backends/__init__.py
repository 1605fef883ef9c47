"""Real-DBMS backend subsystem: engine adapters over the SQL renderer.

This package is the bridge between the TQS pipeline's internal IR and external
database engines.  The adapters render through :mod:`repro.plan.sqlrender`
(re-exported here), which serializes query specs, expression trees and
DSG-generated databases into dialect-parameterized SQL;
:mod:`repro.backends.base` defines the adapter protocol every engine implements;
:mod:`repro.backends.sqlite_backend` is the first real adapter (stdlib sqlite3),
:mod:`repro.backends.duckdb_backend` the second (import-gated on the optional
``duckdb`` driver), and :mod:`repro.backends.simulated` adapts the in-process
engines to the same interface.  Adapters are looked up by plain-string name
through an open registry (:func:`register_backend` / :func:`backend_from_name`).
The differential oracle driving these adapters lives in
:mod:`repro.core.differential`.
"""

from typing import Callable, Dict, List

from repro.backends.base import BackendAdapter, BackendExecution
from repro.backends.duckdb_backend import DuckDBBackend, duckdb_available
from repro.backends.simulated import SimulatedBackend
from repro.backends.sqlbase import RenderedSQLBackend
from repro.backends.sqlite_backend import SQLiteBackend, to_sqlite_value
from repro.plan.sqlrender import (
    ANSI_DIALECT,
    DUCKDB_DIALECT,
    MYSQL_DIALECT,
    SQLITE_DIALECT,
    SQLDialectSpec,
    SQLRenderer,
)

# Exact-name factories plus prefix factories ("sim:" -> dialect-parameterized
# simulated engines); both are open for extension via register_backend, so
# third-party adapters plug in without editing this package.
_BACKEND_FACTORIES: Dict[str, Callable[[], BackendAdapter]] = {}
_BACKEND_PREFIX_FACTORIES: Dict[str, Callable[[str], BackendAdapter]] = {}


def register_backend(name: str, factory: Callable[..., BackendAdapter],
                     prefix: bool = False) -> None:
    """Register an adapter *factory* under a plain-string *name*.

    With ``prefix=True`` the name is treated as a prefix and the factory
    receives the remainder of the requested name as its single argument
    (``register_backend("sim:", ...)`` serves ``"sim:SimMySQL"``).  Factories
    must construct without connecting: the parallel runner materializes
    backends from names inside worker processes, and drivers that are missing
    in a given environment (e.g. DuckDB) must fail at ``connect()`` with a
    clear error, not at registration or lookup time.  Re-registering a name
    replaces the previous factory.
    """
    if prefix:
        _BACKEND_PREFIX_FACTORIES[name] = factory
    else:
        _BACKEND_FACTORIES[name] = factory


def registered_backends() -> List[str]:
    """The names :func:`backend_from_name` accepts (prefixes shown with ``*``)."""
    names = sorted(_BACKEND_FACTORIES)
    names.extend(f"{prefix}*" for prefix in sorted(_BACKEND_PREFIX_FACTORIES))
    return names


def backend_from_name(name: str) -> BackendAdapter:
    """Construct a backend adapter from a plain-string name.

    Strings (unlike adapter instances) cross process boundaries, so this is
    what the multi-process parallel campaign runner and the CLI use to describe
    a differential shard's target: ``"sqlite"`` for the real SQLite adapter,
    ``"duckdb"`` for the (import-gated) DuckDB adapter, ``"sim:<DialectName>"``
    (e.g. ``"sim:SimMySQL"``) for a simulated engine with that dialect's seeded
    faults, and ``"sim"`` for the bug-free reference wrapped in the adapter
    interface.  Third-party names come from :func:`register_backend`.
    """
    factory = _BACKEND_FACTORIES.get(name)
    if factory is not None:
        return factory()
    for prefix, prefix_factory in _BACKEND_PREFIX_FACTORIES.items():
        if name.startswith(prefix):
            return prefix_factory(name[len(prefix):])
    known = ", ".join(repr(known_name) for known_name in registered_backends())
    raise KeyError(f"unknown backend {name!r}; registered backends: {known}")


def _simulated_from_dialect(dialect_name: str) -> SimulatedBackend:
    from repro.engine.dialects import dialect_by_name

    return SimulatedBackend(dialect_by_name(dialect_name))


register_backend("sqlite", SQLiteBackend)
register_backend("duckdb", DuckDBBackend)
register_backend("sim", SimulatedBackend)
register_backend("sim:", _simulated_from_dialect, prefix=True)


__all__ = [
    "ANSI_DIALECT",
    "BackendAdapter",
    "BackendExecution",
    "DUCKDB_DIALECT",
    "DuckDBBackend",
    "MYSQL_DIALECT",
    "RenderedSQLBackend",
    "SQLDialectSpec",
    "SQLITE_DIALECT",
    "SQLRenderer",
    "SQLiteBackend",
    "SimulatedBackend",
    "backend_from_name",
    "duckdb_available",
    "register_backend",
    "registered_backends",
    "to_sqlite_value",
]
