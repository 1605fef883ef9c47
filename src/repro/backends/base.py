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
from typing import Tuple

from repro.catalog.schema import DatabaseSchema
from repro.engine.resultset import ResultSet
from repro.plan.logical import AnyQuerySpec
from repro.storage.database import Database


@dataclass
class BackendExecution:
    """One query execution on a backend, with provenance for bug reports.

    ``fired_bug_ids`` is only populated by simulated backends (real engines do
    not announce their bugs); ``sql`` is empty for backends that execute the IR
    directly.
    """

    result: ResultSet = field(default_factory=lambda: ResultSet([], []))
    sql: str = ""
    fired_bug_ids: Tuple[int, ...] = ()


class BackendAdapter:
    """Abstract base for query-execution backends.

    Subclasses implement :meth:`connect`, :meth:`load_schema`, :meth:`load_data`,
    :meth:`execute`, :meth:`explain` and :meth:`close`.  :meth:`deploy` and
    the context-manager protocol are provided on top of those.
    """

    name = "backend"
    #: Whether a forked copy of a deployed adapter can run its queries while
    #: the original is left alone: a campaign may then check in a forked
    #: process (:func:`~repro.core.differential.checker_can_fork`).  An
    #: adapter whose database library runs native threads must not claim
    #: it, since a fork copies their locks but not the threads.
    survives_fork = False

    # ------------------------------------------------------------ lifecycle

    def connect(self) -> None:
        """Open the connection / acquire the engine. Idempotent."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the connection.

        Must be idempotent: campaign runners, worker error paths and
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

    def explain(self, query: AnyQuerySpec) -> str:
        """Return the backend's plan description for *query*."""
        raise NotImplementedError

    # ------------------------------------------------------------- metadata

    @property
    def description(self) -> str:
        """Human-readable backend description (name by default)."""
        return self.name
