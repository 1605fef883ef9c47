"""Simulated DBMS engines: execution facade, result sets, faults and dialects."""

from repro.engine.dialects import (
    ALL_DIALECTS,
    SIM_MARIADB,
    SIM_MYSQL,
    SIM_TIDB,
    SIM_XDB,
    DialectProfile,
    dialect_by_name,
)
from repro.engine.engine import Engine, ExecutionReport, reference_engine
from repro.engine.faults import ActiveFaults, BugSpec, FaultTrigger
from repro.engine.resultset import ResultSet

__all__ = [
    "ALL_DIALECTS",
    "ActiveFaults",
    "BugSpec",
    "DialectProfile",
    "Engine",
    "ExecutionReport",
    "FaultTrigger",
    "ResultSet",
    "SIM_MARIADB",
    "SIM_MYSQL",
    "SIM_TIDB",
    "SIM_XDB",
    "dialect_by_name",
    "reference_engine",
]
