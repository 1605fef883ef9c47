"""The backend adapter interface: one protocol for real and simulated engines.

A :class:`BackendAdapter` is the minimal surface the differential-testing loop
needs from a query executor: connect, deploy a DSG-generated database (schema
then data), execute logical queries, explain them, and close.  Real engines
(:class:`~repro.backends.sqlite_backend.SQLiteBackend`, future DuckDB / MySQL /
Postgres adapters) render the IR to SQL through a
:class:`~repro.plan.sqlrender.SQLRenderer`; the
:class:`~repro.backends.simulated.SimulatedBackend` wraps an in-process
:class:`~repro.engine.engine.Engine` so the seeded-fault dialects can be driven
through the exact same interface (which is also how the differential oracle's
own sensitivity is tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.catalog.schema import DatabaseSchema
from repro.engine.resultset import ResultSet
from repro.errors import BackendError
from repro.plan.logical import AnyQuerySpec
from repro.storage.database import Database


@dataclass
class BackendExecution:
    """One query execution on a backend, with provenance for bug reports.

    ``fired_bug_ids`` is only populated by simulated backends (real engines do
    not announce their bugs); ``sql`` is empty for backends that execute the IR
    directly.  Batched execution (:meth:`BackendAdapter.execute_many`) captures
    per-query failures in ``error`` instead of raising, so one unsupported
    construct cannot poison a whole batch; ``result`` is empty in that case.
    """

    result: ResultSet = field(default_factory=lambda: ResultSet([], []))
    sql: str = ""
    fired_bug_ids: Tuple[int, ...] = ()
    error: Optional[BackendError] = None

    @property
    def ok(self) -> bool:
        """True when the query executed and ``result`` is meaningful."""
        return self.error is None


class BackendAdapter:
    """Abstract base for query-execution backends.

    Subclasses implement :meth:`connect`, :meth:`load_schema`, :meth:`load_data`,
    :meth:`execute`, :meth:`explain` and :meth:`close`.  :meth:`deploy`,
    :meth:`execute_many` and the context-manager protocol are provided on top
    of those.

    Capability flags let the execution pipeline adapt without isinstance
    checks: ``supports_concurrent_cursors`` declares that several in-flight
    queries may safely execute on this adapter from different threads at once
    (stdlib sqlite3 shares one connection, so it must stay serial; a pure
    in-process engine has no shared cursor state).
    """

    name = "backend"
    supports_concurrent_cursors = False

    # ------------------------------------------------------------ lifecycle

    def connect(self) -> None:
        """Open the connection / acquire the engine. Idempotent."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the connection.

        Must be idempotent: campaign runners, pipeline error paths and
        context-manager exits may each close the same adapter, so a second
        (or third) call is a no-op, never an error.
        """
        raise NotImplementedError

    def __enter__(self) -> "BackendAdapter":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- loading

    def load_schema(self, schema: DatabaseSchema) -> None:
        """Create the tables (and indexes) of *schema* on the backend."""
        raise NotImplementedError

    def load_data(self, database: Database) -> None:
        """Bulk-load every table of *database* into the backend."""
        raise NotImplementedError

    def deploy(self, database: Database) -> None:
        """Connect, create the schema and load the data in one step."""
        self.connect()
        self.load_schema(database.schema)
        self.load_data(database)

    # ------------------------------------------------------------ execution

    def execute(self, query: AnyQuerySpec) -> BackendExecution:
        """Execute one logical query and return its result set."""
        raise NotImplementedError

    def execute_many(self, queries: Sequence[AnyQuerySpec]
                     ) -> List[BackendExecution]:
        """Execute a batch of queries, one :class:`BackendExecution` each.

        The default implementation is serial — one :meth:`execute` per query,
        in order — so every existing adapter gets the batched API for free.
        Adapters backed by engines with real batch endpoints (server-side
        pipelining, concurrent cursors) may override it for throughput; the
        contract either way is that the returned list has exactly one entry
        per input query, in input order, and that per-query failures come back
        as ``BackendExecution(error=...)`` instead of an exception, so one
        unsupported construct never discards its batch-mates' results.
        """
        executions: List[BackendExecution] = []
        for query in queries:
            try:
                executions.append(self.execute(query))
            except BackendError as error:
                executions.append(BackendExecution(error=error))
        return executions

    def explain(self, query: AnyQuerySpec) -> str:
        """Return the backend's plan description for *query*."""
        raise NotImplementedError

    # ------------------------------------------------------------- metadata

    @property
    def description(self) -> str:
        """Human-readable backend description (name by default)."""
        return self.name
