"""TQS: Transformed Query Synthesis — detecting logic bugs of join optimizations.

A from-scratch Python reproduction of "Detecting Logic Bugs of Join Optimizations
in DBMS" (SIGMOD 2023).  The package contains both the paper's contribution (DSG
and KQE, orchestrated by :class:`repro.core.TQS`) and every substrate it needs:
an in-memory relational engine with hint-controllable join algorithms, four
simulated DBMS dialects with seeded logic bugs, SQLancer-style baselines, and the
campaign/benchmark harness that regenerates the paper's tables and figures.

Quickstart
----------
>>> from repro import DSG, DSGConfig, Engine, SIM_MYSQL, TQS, TQSConfig
>>> dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=120, seed=1))
>>> engine = Engine(dsg.database, SIM_MYSQL)
>>> tqs = TQS(dsg, engine, TQSConfig(seed=1))
>>> log = tqs.run(iterations=20)
>>> log.bug_count >= 0
True
"""

from repro.backends import (
    BackendAdapter,
    DuckDBBackend,
    SQLDialectSpec,
    SQLITE_DIALECT,
    SQLRenderer,
    SQLiteBackend,
    SimulatedBackend,
    backend_from_name,
    register_backend,
)
from repro.core import (
    AdaptiveBudgetPolicy,
    BudgetPolicy,
    BugIncident,
    BugLog,
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    DifferentialConfig,
    DifferentialOracle,
    DifferentialOutcome,
    DifferentialTester,
    ExecutionPipeline,
    ParallelCampaignConfig,
    PipelineConfig,
    ParallelCampaignResult,
    ParallelSearchConfig,
    ParallelSearchSimulator,
    QueryCache,
    QueryReducer,
    TQS,
    TQSConfig,
    run_ablation,
    run_baseline_campaign,
    run_campaign,
    run_differential_campaign,
    run_parallel_baseline_campaign,
    run_parallel_differential_campaign,
    run_parallel_shards,
    run_parallel_tqs_campaign,
    run_tqs_campaign,
)
from repro.dsg import DSG, DSGConfig, GroundTruthOracle, WideTable
from repro.engine import (
    ALL_DIALECTS,
    Engine,
    ResultSet,
    SIM_MARIADB,
    SIM_MYSQL,
    SIM_TIDB,
    SIM_XDB,
    dialect_by_name,
    reference_engine,
)
from repro.kqe import KQE, KQEConfig
from repro.optimizer import HintSet, standard_hint_sets
from repro.plan import CompoundQuerySpec, JoinType, QuerySpec, SetOperator

__version__ = "1.0.0"

__all__ = [
    "ALL_DIALECTS",
    "AdaptiveBudgetPolicy",
    "BackendAdapter",
    "BudgetPolicy",
    "BugIncident",
    "BugLog",
    "CampaignConfig",
    "CampaignResult",
    "CampaignSpec",
    "DSG",
    "DSGConfig",
    "DifferentialConfig",
    "DifferentialOracle",
    "DifferentialOutcome",
    "DifferentialTester",
    "DuckDBBackend",
    "Engine",
    "ExecutionPipeline",
    "GroundTruthOracle",
    "HintSet",
    "JoinType",
    "KQE",
    "KQEConfig",
    "ParallelCampaignConfig",
    "PipelineConfig",
    "ParallelCampaignResult",
    "ParallelSearchConfig",
    "ParallelSearchSimulator",
    "QueryCache",
    "QueryReducer",
    "CompoundQuerySpec",
    "QuerySpec",
    "ResultSet",
    "SetOperator",
    "SQLDialectSpec",
    "SQLITE_DIALECT",
    "SQLRenderer",
    "SQLiteBackend",
    "SimulatedBackend",
    "SIM_MARIADB",
    "SIM_MYSQL",
    "SIM_TIDB",
    "SIM_XDB",
    "TQS",
    "TQSConfig",
    "WideTable",
    "backend_from_name",
    "dialect_by_name",
    "reference_engine",
    "register_backend",
    "run_ablation",
    "run_baseline_campaign",
    "run_campaign",
    "run_differential_campaign",
    "run_parallel_baseline_campaign",
    "run_parallel_differential_campaign",
    "run_parallel_shards",
    "run_parallel_tqs_campaign",
    "run_tqs_campaign",
    "standard_hint_sets",
    "__version__",
]
