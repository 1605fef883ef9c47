"""A :class:`BackendAdapter` facade over the in-process simulated engines.

Wrapping :class:`~repro.engine.engine.Engine` in the adapter interface keeps the
differential-testing loop engine-agnostic: the same differential campaign
(``run_campaign(CampaignSpec(kind="differential", backend=...))``) drives a
real SQLite connection and a simulated MySQL with seeded faults.  The wrapper is also how the differential oracle's
sensitivity is validated — a campaign against a faulty simulated backend must
report mismatches, while the bug-free reference must not.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import obs
from repro.backends.base import BackendAdapter, BackendExecution
from repro.catalog.schema import DatabaseSchema
from repro.engine.dialects import DialectProfile
from repro.engine.engine import Engine
from repro.errors import BackendError
from repro.optimizer.hints import HintSet
from repro.plan.logical import QuerySpec
from repro.storage.database import Database


class SimulatedBackend(BackendAdapter):
    """Adapter around a simulated :class:`Engine` (clean or seeded with faults)."""

    survives_fork = True  # plain Python objects, copied whole by a fork

    def __init__(self, dialect: Optional[DialectProfile] = None,
                 hints: Optional[HintSet] = None) -> None:
        self.dialect = dialect
        self.hints = hints
        self._engine: Optional[Engine] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        if self._engine is not None:
            return self._engine.name
        if self.dialect is not None:
            return f"{self.dialect.name} {self.dialect.version}"
        return "ReferenceEngine"

    @property
    def engine(self) -> Engine:
        """The wrapped engine (raises before :meth:`load_data`)."""
        if self._engine is None:
            raise BackendError("SimulatedBackend has no engine; deploy a database first")
        return self._engine

    # ------------------------------------------------------------ lifecycle

    def connect(self) -> None:
        """No connection to open; the engine is built when data is loaded."""

    def close(self) -> None:
        self._engine = None

    # ------------------------------------------------------------- loading

    def load_schema(self, schema: DatabaseSchema) -> None:
        """Nothing to do: simulated engines read the schema from the database."""

    def load_data(self, database: Database) -> None:
        self._engine = Engine(database, self.dialect)

    # ------------------------------------------------------------ execution

    def execute(self, query: QuerySpec) -> BackendExecution:
        registry = obs.get_registry()
        start = time.perf_counter()
        report = self.engine.execute_with_report(query, self.hints)
        elapsed = time.perf_counter() - start
        registry.observe_phase("execute.target", elapsed)
        registry.histogram("execute.seconds", backend=self.name).observe(elapsed)
        # sql stays empty: the engine executes the IR directly, and incident
        # filing falls back to the reference-dialect SQLRenderer — rendering
        # eagerly here would waste a full tree walk on every matching query.
        return BackendExecution(
            result=report.result,
            fired_bug_ids=report.fired_bug_ids,
        )

    def explain(self, query: QuerySpec) -> str:
        return self.engine.explain(query, self.hints)

    @property
    def description(self) -> str:
        return f"simulated {self.name}"
