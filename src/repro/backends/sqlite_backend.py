"""A real-DBMS backend over Python's stdlib :mod:`sqlite3`.

This is the first external engine the TQS pipeline can test for real: the
DSG-generated (noise-injected) database is deployed into a SQLite connection via
rendered DDL/DML, every generated query is rendered to SQLite SQL and executed,
and the differential oracle compares the results against the reference executor.

Value conversion happens at the boundary in both directions:

* on load, the IR's value domain (``int`` / ``float`` / ``Decimal`` / ``str`` /
  ``bool`` / :data:`~repro.sqlvalue.values.NULL`) is mapped onto SQLite storage
  classes — :data:`NULL` becomes ``None``, ``bool`` becomes ``0/1``, integral
  decimals become ``int`` and fractional ones ``float`` (SQLite has no exact
  decimal type; the float-tolerant result comparison absorbs the representation
  change);
* on fetch,``None`` becomes :data:`NULL` again so result sets compare under the
  repo's own three-valued semantics.

Integers outside the signed 64-bit range (e.g. the ``bigint unsigned`` boundary
``2**64 - 1``) cannot be stored losslessly; they raise
:class:`~repro.errors.BackendError` instead of being silently rounded through a
double, because a silent rounding would later surface as a fake logic bug.

The deploy/execute machinery shared with other rendered-SQL adapters lives in
:class:`~repro.backends.sqlbase.RenderedSQLBackend`; this module adds only the
sqlite3 connection lifecycle and driver hooks.
"""

from __future__ import annotations

import sqlite3
from decimal import Decimal
from typing import Any, List, Optional

from repro.backends.sqlbase import RenderedSQLBackend
from repro.errors import BackendError
from repro.plan.sqlrender import SQLITE_DIALECT, SQLRenderer
from repro.sqlvalue.values import is_null

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def to_sqlite_value(value: Any, context: str = "") -> Any:
    """Convert one IR value into a value sqlite3 can bind."""
    if is_null(value):
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise BackendError(
                f"integer {value} exceeds the signed 64-bit range{context}"
            )
        return value
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return to_sqlite_value(int(value), context)
        return float(value)
    if isinstance(value, (float, str)):
        return value
    raise BackendError(f"cannot bind value {value!r} of type {type(value).__name__}{context}")


class SQLiteBackend(RenderedSQLBackend):
    """Backend adapter executing rendered SQL on a real SQLite connection."""

    name = "SQLite"
    driver_errors = (sqlite3.Error, OverflowError)
    explain_prefix = "EXPLAIN QUERY PLAN"

    def __init__(self, path: str = ":memory:",
                 renderer: Optional[SQLRenderer] = None) -> None:
        super().__init__(renderer or SQLRenderer(SQLITE_DIALECT))
        self.path = path
        self._connection: Optional[sqlite3.Connection] = None

    @property
    def survives_fork(self) -> bool:
        """True only in memory, where a fork gives each process its own
        database.  The library runs no threads of its own, but a connection
        to a file must not cross a fork
        (https://www.sqlite.org/howtocorrupt.html, section 2.6)."""
        return self.path == ":memory:"

    # ------------------------------------------------------------ lifecycle

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection (raises when not connected)."""
        if self._connection is None:
            raise BackendError("SQLiteBackend is not connected; call connect()")
        return self._connection

    def connect(self) -> None:
        if self._connection is not None:
            return
        try:
            self._connection = sqlite3.connect(self.path)
        except sqlite3.Error as error:  # pragma: no cover - env dependent
            raise BackendError(f"cannot open SQLite database {self.path!r}: {error}")

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # ---------------------------------------------------------- driver hooks

    def _run(self, sql: str) -> sqlite3.Cursor:
        return self.connection.execute(sql)

    def _run_many(self, sql: str, rows: List[tuple]) -> None:
        self.connection.executemany(sql, rows)

    def _commit(self) -> None:
        self.connection.commit()

    @property
    def description(self) -> str:
        return f"SQLite {sqlite3.sqlite_version} ({self.path})"
