"""A real-DBMS backend over the (optional) DuckDB Python driver.

Structurally a sibling of :class:`~repro.backends.sqlite_backend.SQLiteBackend`
— rendered DDL/DML deploys the DSG-generated database, rendered SELECTs run
through the differential oracle — but against an analytical engine with a
genuinely different executor (vectorized, its own join planner), which is what
makes cross-engine disagreement interesting.  The shared deploy/execute
machinery comes from :class:`~repro.backends.sqlbase.RenderedSQLBackend`; this
module adds only the DuckDB connection lifecycle and driver hooks.

The ``duckdb`` driver is **not** a dependency of this package.  The import is
gated so that everything else works without it: constructing a
:class:`DuckDBBackend` is always allowed (the parallel runner constructs
backends from plain-string names before workers ever connect), and only
:meth:`connect` raises a :class:`~repro.errors.BackendError` explaining the
missing driver.  Tests are skip-marked on the same condition, and a dedicated
CI leg installs the driver to keep the adapter honest.

Value conversion mirrors the SQLite adapter: the IR's value domain maps onto
DuckDB's BIGINT / DOUBLE / VARCHAR columns on load (NULL <-> None, bool -> 0/1,
integral decimals -> int, fractional -> float), and ``None`` becomes
:data:`~repro.sqlvalue.values.NULL` again on fetch so result sets compare
under the repo's three-valued semantics.  Integers beyond the signed 64-bit
range raise instead of rounding silently through a double.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.backends.sqlbase import RenderedSQLBackend
from repro.errors import BackendError
from repro.plan.sqlrender import DUCKDB_DIALECT, SQLRenderer

try:  # pragma: no cover - presence depends on the environment
    import duckdb
except ImportError:  # pragma: no cover - the gated path is the common one
    duckdb = None


def duckdb_available() -> bool:
    """True when the optional ``duckdb`` driver is importable."""
    return duckdb is not None


class DuckDBBackend(RenderedSQLBackend):
    """Backend adapter executing rendered SQL on a DuckDB connection."""

    name = "DuckDB"
    # DuckDB executes on native worker threads, which a fork does not copy.
    survives_fork = False
    # The narrow taxonomy applies whenever the driver is importable;
    # (Exception,) only stands in when it is not (those methods are then
    # unreachable anyway, since connect() refuses without the driver).
    # OverflowError covers out-of-range integers at parameter binding.
    driver_errors = ((duckdb.Error, OverflowError) if duckdb is not None
                     else (Exception,))

    def __init__(self, path: str = ":memory:",
                 renderer: Optional[SQLRenderer] = None) -> None:
        super().__init__(renderer or SQLRenderer(DUCKDB_DIALECT))
        self.path = path
        self._connection: Optional[Any] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def connection(self) -> Any:
        """The live connection (raises when not connected)."""
        if self._connection is None:
            raise BackendError("DuckDBBackend is not connected; call connect()")
        return self._connection

    def connect(self) -> None:
        if self._connection is not None:
            return
        if duckdb is None:
            raise BackendError(
                "the duckdb driver is not installed; "
                "`pip install duckdb` enables this backend"
            )
        try:
            self._connection = duckdb.connect(self.path)
        except Exception as error:  # pragma: no cover - env dependent
            raise BackendError(
                f"cannot open DuckDB database {self.path!r}: {error}"
            ) from error

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # ---------------------------------------------------------- driver hooks

    def _run(self, sql: str) -> Any:
        return self.connection.execute(sql)

    def _run_many(self, sql: str, rows: List[tuple]) -> None:
        self.connection.executemany(sql, rows)

    @property
    def description(self) -> str:
        version = getattr(duckdb, "__version__", "unavailable")
        return f"DuckDB {version} ({self.path})"
