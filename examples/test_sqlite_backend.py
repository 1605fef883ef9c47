"""Walkthrough: point the TQS pipeline at a real DBMS (stdlib SQLite).

The simulated campaigns check engines we seeded with bugs; this example shows
the other direction — deploying a DSG-generated, noise-injected database into a
real SQLite connection, rendering every generated query to SQLite SQL, and
letting the differential oracle compare SQLite against the reference executor.

The same four steps work for any future adapter (DuckDB, MySQL, Postgres):
implement ``BackendAdapter`` plus a ``SQLDialectSpec`` and everything else is
shared.

Run with:  python examples/test_sqlite_backend.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import (
    CampaignSpec,
    DSG,
    DSGConfig,
    SQLiteBackend,
    run_campaign,
)
from repro.analysis import render_differential_summary
from repro.backends import SQLITE_DIALECT, SQLRenderer


def main() -> None:
    print("=== 1. Render the IR as real SQL ===")
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=120, seed=7))
    renderer = SQLRenderer(SQLITE_DIALECT)
    query = dsg.generate_query()
    print("one generated query, rendered for SQLite:")
    print(renderer.query(query))
    print()

    print("=== 2. Deploy the generated database into SQLite ===")
    backend = SQLiteBackend()
    backend.deploy(dsg.database)
    ddl = renderer.create_table(dsg.database.schema.tables[0])
    print(f"connected to {backend.description}")
    print(f"loaded {dsg.database.total_rows()} rows; first table DDL:")
    print(ddl)
    print()

    print("=== 3. Execute and explain on the real engine ===")
    execution = backend.execute(query)
    print(f"SQLite returned {len(execution.result)} rows; query plan:")
    print(backend.explain(query))
    backend.close()
    print()

    print("=== 4. Differential campaign: SQLite vs the reference executor ===")
    spec = CampaignSpec(kind="differential", backend="sqlite", hours=4,
                        queries_per_hour=10, seed=7)
    result = run_campaign(spec)
    print(render_differential_summary(result))
    print()

    print("=== 5. The same loop against a seeded-fault engine ===")
    faulty = run_campaign(replace(spec, backend="sim:SimMySQL"))
    print(render_differential_summary(faulty))


if __name__ == "__main__":
    main()
