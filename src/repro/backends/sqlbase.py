"""Shared machinery for adapters that speak rendered SQL to a DB-API driver.

:class:`RenderedSQLBackend` owns everything that is identical across SQL
backends — deploying rendered DDL, bulk-loading converted rows, executing a
rendered query and re-labelling its output columns, wrapping driver errors as
:class:`~repro.errors.BackendError` — so a concrete adapter
(:class:`~repro.backends.sqlite_backend.SQLiteBackend`,
:class:`~repro.backends.duckdb_backend.DuckDBBackend`, a future MySQL /
Postgres adapter) only supplies connection lifecycle plus three small driver
hooks: :meth:`_run` (one statement), :meth:`_run_many` (one executemany bulk
load) and optionally :meth:`_commit`.  Fixes to value conversion or result
handling then land in one place instead of drifting per adapter.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from repro import obs
from repro.backends.base import BackendAdapter, BackendExecution
from repro.catalog.schema import DatabaseSchema
from repro.engine.resultset import ResultSet
from repro.errors import BackendError
from repro.plan.logical import AnyQuerySpec
from repro.plan.sqlrender import SQLRenderer
from repro.storage.database import Database
from repro.sqlvalue.values import null_if_none


class RenderedSQLBackend(BackendAdapter):
    """Base adapter for engines driven through rendered SQL text.

    Subclasses set :attr:`driver_errors` (the driver's exception types, which
    the shared methods translate into :class:`BackendError` at the adapter
    boundary), :attr:`explain_prefix`, and implement :meth:`_run` /
    :meth:`_run_many` over their connection object; :meth:`_convert_value`
    may be overridden for engines whose binding domain differs from the
    shared int/float/str mapping.
    """

    # Exception types the driver raises; translated to BackendError by the
    # shared methods.  OverflowError covers drivers that reject out-of-range
    # integers at parameter-binding time.
    driver_errors: Tuple[type, ...] = (Exception,)
    explain_prefix = "EXPLAIN"

    def __init__(self, renderer: SQLRenderer) -> None:
        self.renderer = renderer
        self.statements_executed = 0

    # -------------------------------------------------------- driver hooks

    def _run(self, sql: str) -> Any:
        """Execute one SQL statement; returns a DB-API cursor-like object
        (``description`` + ``fetchall()``)."""
        raise NotImplementedError

    def _run_many(self, sql: str, rows: List[tuple]) -> None:
        """Execute one parameterized statement for every row (bulk load)."""
        raise NotImplementedError

    def _commit(self) -> None:
        """Commit after a load phase; no-op for autocommitting drivers."""

    def _convert_value(self, value: Any, context: str) -> Any:
        """Convert one IR value into a driver-bindable value."""
        from repro.backends.sqlite_backend import to_sqlite_value

        return to_sqlite_value(value, context)

    # ------------------------------------------------------------- loading

    def load_schema(self, schema: DatabaseSchema) -> None:
        for table in schema.tables:
            try:
                self._run(self.renderer.create_table(table))
                for statement in self.renderer.create_indexes(table):
                    self._run(statement)
            except self.driver_errors as error:
                raise BackendError(
                    f"cannot create table {table.name!r} on {self.name}: "
                    f"{error}"
                ) from error
            self.statements_executed += 1
        self._commit()

    def load_data(self, database: Database) -> None:
        for name in database.table_names:
            table = database.table_schema(name)
            sql, columns = self.renderer.insert_statement(table)
            rows = [
                tuple(
                    self._convert_value(value, f" (table {name!r})")
                    for value in stored
                )
                for stored in database.table(name).rows_as_tuples(columns)
            ]
            if not rows:
                continue
            try:
                self._run_many(sql, rows)
            except self.driver_errors as error:
                raise BackendError(
                    f"cannot load {len(rows)} rows into {name!r}: {error}"
                ) from error
            self.statements_executed += 1
        self._commit()

    # ------------------------------------------------------------ execution

    def execute_sql(self, sql: str) -> ResultSet:
        """Run raw SQL text and wrap the cursor output as a :class:`ResultSet`."""
        try:
            cursor = self._run(sql)
        except self.driver_errors as error:
            raise BackendError(
                f"{self.name} rejected query: {error}\n{sql}"
            ) from error
        self.statements_executed += 1
        columns = [item[0] for item in cursor.description or ()]
        rows = [[null_if_none(value) for value in row]
                for row in cursor.fetchall()]
        return ResultSet(columns, rows)

    def execute(self, query: AnyQuerySpec) -> BackendExecution:
        registry = obs.get_registry()
        with registry.span("render"):
            sql = self.renderer.query(query)
        start = time.perf_counter()
        result = self.execute_sql(sql)
        elapsed = time.perf_counter() - start
        registry.observe_phase("execute.target", elapsed)
        registry.histogram("execute.seconds", backend=self.name).observe(elapsed)
        # Use the IR's own output naming so result sets line up with the
        # reference executor even if the engine mangles duplicate names.
        names = query.output_columns()
        if len(names) == len(result.columns):
            result = ResultSet(names, result.rows)
        return BackendExecution(result=result, sql=sql)

    def explain(self, query: AnyQuerySpec) -> str:
        sql = self.renderer.query(query)
        try:
            cursor = self._run(f"{self.explain_prefix} {sql}")
        except self.driver_errors as error:
            raise BackendError(
                f"{self.name} rejected query: {error}\n{sql}"
            ) from error
        self.statements_executed += 1
        lines = [" | ".join(str(value) for value in row)
                 for row in cursor.fetchall()]
        return "\n".join(lines)
