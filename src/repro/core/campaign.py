"""Testing campaigns: the simulated 24-hour runs behind every figure and table.

The paper runs each tool for 24 wall-clock hours and reports per-hour series
(diversity, bug count) plus end-of-run totals (Table 4, Table 5).  A laptop
reproduction cannot spend 24 real hours per cell, so a campaign is budgeted:
each simulated "hour" corresponds to a fixed number of generated queries, and
all per-hour series are reported against simulated hours.  Shapes (who grows
faster, where curves flatten) are preserved; absolute per-hour magnitudes simply
scale with the per-hour budget.

All campaign kinds (TQS, baseline, differential) share one iteration loop,
:func:`run_campaign_loop`: a tester object exposing ``run_iteration()`` plus the
cumulative counters is driven hour by hour, rejected generations are counted
instead of silently swallowed, and an optional per-hour hook receives the hour's
deltas — the seam the multi-process parallel runner
(:mod:`repro.core.parallel`) uses for index synchronization and merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Union

from repro import obs
from repro.backends import backend_from_name
from repro.backends.base import BackendAdapter
from repro.baselines import make_baseline
from repro.baselines.base import BaselineTester
from repro.core.bug_report import BugIncident, BugLog
from repro.core.differential import DifferentialConfig, DifferentialTester
from repro.core.execpipe import PipelineConfig
from repro.core.qcache import QueryCache
from repro.core.tqs import TQS, TQSConfig
from repro.dsg.pipeline import DSG, DSGConfig
from repro.dsg.query_gen import GenerationConfig
from repro.engine.dialects import DialectProfile, dialect_by_name
from repro.engine.engine import Engine, reference_engine
from repro.errors import CampaignError, GenerationError


@dataclass
class HourlySample:
    """The cumulative state of a campaign after one simulated hour."""

    hour: int
    queries_generated: int
    queries_executed: int
    isomorphic_sets: int
    bug_count: int
    bug_type_count: int
    generations_rejected: int = 0


@dataclass
class CampaignResult:
    """Full output of one campaign."""

    tool: str
    dbms: str
    dataset: str
    samples: List[HourlySample] = field(default_factory=list)
    bug_log: Optional[BugLog] = None

    @property
    def final(self) -> HourlySample:
        """The last hourly sample."""
        if not self.samples:
            raise CampaignError("campaign produced no samples")
        return self.samples[-1]

    @property
    def generations_rejected(self) -> int:
        """Generations the walk abandoned over the whole campaign.

        Surfaced so throughput numbers are honest: ``queries_generated`` counts
        only successful generations, and this counts the attempts that burned
        budget without producing a query.
        """
        return self.final.generations_rejected

    def series(self, attribute: str) -> List[int]:
        """One per-hour series, e.g. ``series('bug_count')``."""
        return [getattr(sample, attribute) for sample in self.samples]


@dataclass
class CampaignConfig:
    """Configuration of a TQS campaign."""

    dataset: str = "shopping"
    dataset_rows: int = 150
    hours: int = 24
    queries_per_hour: int = 12
    seed: int = 5
    use_noise: bool = True
    use_ground_truth: bool = True
    use_kqe: bool = True
    max_hint_sets: Optional[int] = None
    # The content-addressed render/result cache — differential campaigns
    # only; it leaves verdicts bit-identical (see repro.core.qcache).
    use_query_cache: bool = False
    # Widened-grammar probabilities (set operations, scalar subqueries,
    # CTEs).  0.0 keeps the classic join-query-only grammar and, by the
    # no-draw gating in the generator, byte-identical RNG streams.
    setop_probability: float = 0.0
    scalar_subquery_probability: float = 0.0
    cte_probability: float = 0.0

    def dsg_config(self) -> DSGConfig:
        """The DSG configuration implied by this campaign."""
        return DSGConfig(
            dataset=self.dataset,
            dataset_rows=self.dataset_rows,
            seed=self.seed,
            inject_noise=self.use_noise,
            adversarial_pairs=self.use_noise,
            max_hint_sets=self.max_hint_sets,
            generation=GenerationConfig(
                setop_probability=self.setop_probability,
                scalar_subquery_probability=self.scalar_subquery_probability,
                cte_probability=self.cte_probability,
            ),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, fully described by plain data — the stable public API.

    Where the legacy runners took live objects plus a parameter sprawl
    (dialect profile, baseline instance, adapter, pipeline config, ...), a
    spec names everything by string and scalar, so it can be stored, diffed,
    hashed, shipped across processes and replayed.  :func:`run_campaign` is
    the single entrypoint consuming it.

    ``kind`` selects the campaign flavour:

    * ``"tqs"`` — TQS against the simulated ``dialect``;
    * ``"baseline"`` — SQLancer-style ``baseline`` against ``dialect``;
    * ``"differential"`` — TQS generation differentially against the real
      ``backend`` adapter, honouring ``use_query_cache`` and
      ``pipeline_batch_size``.

    ``workers > 1`` routes through the multiprocessing pool
    (:mod:`repro.core.parallel`) and returns its merged
    ``ParallelCampaignResult`` instead of a :class:`CampaignResult`.
    """

    kind: str = "tqs"
    dialect: str = "SimMySQL"
    baseline: str = ""
    backend: str = "sqlite"
    dataset: str = "shopping"
    dataset_rows: int = 150
    hours: int = 24
    queries_per_hour: int = 12
    seed: int = 5
    use_noise: bool = True
    use_ground_truth: bool = True
    use_kqe: bool = True
    max_hint_sets: Optional[int] = None
    use_query_cache: bool = False
    setop_probability: float = 0.0
    scalar_subquery_probability: float = 0.0
    cte_probability: float = 0.0
    pipeline_batch_size: int = 1
    workers: int = 1

    def campaign_config(self) -> "CampaignConfig":
        """The per-shard :class:`CampaignConfig` this spec implies."""
        return CampaignConfig(
            dataset=self.dataset,
            dataset_rows=self.dataset_rows,
            hours=self.hours,
            queries_per_hour=self.queries_per_hour,
            seed=self.seed,
            use_noise=self.use_noise,
            use_ground_truth=self.use_ground_truth,
            use_kqe=self.use_kqe,
            max_hint_sets=self.max_hint_sets,
            use_query_cache=self.use_query_cache,
            setop_probability=self.setop_probability,
            scalar_subquery_probability=self.scalar_subquery_probability,
            cte_probability=self.cte_probability,
        )

    def pipeline_config(self) -> Optional[PipelineConfig]:
        """The execution-pipeline config, or None for the serial path."""
        if self.pipeline_batch_size > 1:
            return PipelineConfig(batch_size=self.pipeline_batch_size)
        return None


def run_campaign(spec: CampaignSpec, on_hour: Optional["OnHour"] = None):
    """Run the campaign *spec* describes; the single public entrypoint.

    Returns a :class:`CampaignResult`, or the parallel pool's merged
    ``ParallelCampaignResult`` when ``spec.workers > 1`` (the ``on_hour``
    hook is a serial-path seam and is ignored by the pool, which has its own
    coordinator-side hooks).
    """
    if spec.kind not in ("tqs", "baseline", "differential"):
        raise CampaignError(
            f"unknown campaign kind {spec.kind!r}; "
            "expected 'tqs', 'baseline' or 'differential'"
        )
    if spec.kind == "baseline" and not spec.baseline:
        raise CampaignError("baseline campaigns need spec.baseline set")
    config = spec.campaign_config()
    if spec.workers > 1:
        # Deferred import: the parallel runner imports this module.
        from repro.core.parallel import (
            ParallelCampaignConfig,
            build_shard_specs,
            run_parallel_shards,
        )

        shards = build_shard_specs(
            spec.kind, config, spec.workers, dialect=spec.dialect,
            baseline=spec.baseline, backend=spec.backend,
            batch_size=spec.pipeline_batch_size,
        )
        return run_parallel_shards(
            shards,
            ParallelCampaignConfig(
                workers=spec.workers,
                pipeline_batch_size=spec.pipeline_batch_size,
            ),
        )
    if spec.kind == "tqs":
        return run_tqs_campaign(dialect_by_name(spec.dialect), config,
                                on_hour=on_hour)
    if spec.kind == "baseline":
        return run_baseline_campaign(make_baseline(spec.baseline),
                                     dialect_by_name(spec.dialect), config,
                                     on_hour=on_hour)
    return run_differential_campaign(backend_from_name(spec.backend), config,
                                     pipeline=spec.pipeline_config(),
                                     on_hour=on_hour)


# --------------------------------------------------------------- shared loop


@dataclass
class HourRecord:
    """One simulated hour's deltas, handed to the ``on_hour`` hook.

    ``new_labels`` are the canonical labels of isomorphic sets first explored
    during this hour; ``new_incidents`` the bug incidents recorded during it.
    Both are what a parallel worker must ship to the coordinator so the merged
    campaign preserves the per-hour series contract.
    """

    hour: int
    sample: HourlySample
    new_labels: List[str]
    new_incidents: List[BugIncident]


OnHour = Callable[[HourRecord], None]

# The per-hour budget: a constant, or a callable mapping the 1-based hour to
# that hour's budget — the seam through which adaptive shard budgets flow.
QueriesPerHour = Union[int, Callable[[int], int]]


def run_campaign_loop(tester, result: CampaignResult, hours: int,
                      queries_per_hour: QueriesPerHour,
                      on_hour: Optional[OnHour] = None) -> CampaignResult:
    """Drive any tester through a budgeted campaign, one shared loop.

    *tester* must expose ``run_iteration()`` (raising
    :class:`~repro.errors.GenerationError` when a walk dead-ends), the
    cumulative counters ``queries_generated`` / ``queries_executed`` /
    ``explored_isomorphic_sets``, a ``bug_log`` and a ``diversity``
    isomorphic-set counter.  :class:`~repro.core.tqs.TQS`, every
    :class:`~repro.baselines.base.BaselineTester` and
    :class:`~repro.core.differential.DifferentialTester` all do.  A tester may
    additionally expose ``flush()``; it is called at every hour boundary so
    batched execution (the pipelined differential tester) drains before the
    hour's counters are sampled — which is what keeps pipelined per-hour
    series identical to serial ones.

    *queries_per_hour* may be a callable of the 1-based hour instead of a
    constant: the adaptive-budget worker uses that to apply the coordinator's
    per-round reallocations without forking the loop.
    """
    registry = obs.get_registry()
    rejected = 0
    known_labels: Set[str] = set()
    incident_watermark = 0
    flush = getattr(tester, "flush", None)
    # Counter baselines: testers hand cumulative counts to the loop, telemetry
    # counters want per-hour deltas (and must stay correct for testers that
    # are resumed with non-zero counts).
    prev_generated = tester.queries_generated
    prev_executed = tester.queries_executed
    prev_sets = tester.explored_isomorphic_sets
    prev_bugs = tester.bug_log.bug_count
    prev_rejected = 0
    for hour in range(1, hours + 1):
        budget = (queries_per_hour(hour) if callable(queries_per_hour)
                  else queries_per_hour)
        for _ in range(budget):
            try:
                tester.run_iteration()
            except GenerationError:
                # A failed generation must not abort the campaign, but it must
                # not vanish either: it burned budget without a query.
                rejected += 1
        if flush is not None:
            flush()
        sample = HourlySample(
            hour=hour,
            queries_generated=tester.queries_generated,
            queries_executed=tester.queries_executed,
            isomorphic_sets=tester.explored_isomorphic_sets,
            bug_count=tester.bug_log.bug_count,
            bug_type_count=tester.bug_log.bug_type_count,
            generations_rejected=rejected,
        )
        result.samples.append(sample)
        registry.counter("campaign.hours").inc()
        registry.counter("campaign.queries_generated").inc(
            sample.queries_generated - prev_generated)
        registry.counter("campaign.queries_executed").inc(
            sample.queries_executed - prev_executed)
        registry.counter("campaign.novel_labels").inc(
            sample.isomorphic_sets - prev_sets)
        registry.counter("campaign.bugs").inc(sample.bug_count - prev_bugs)
        registry.counter("campaign.generations_rejected").inc(
            rejected - prev_rejected)
        prev_generated = sample.queries_generated
        prev_executed = sample.queries_executed
        prev_sets = sample.isomorphic_sets
        prev_bugs = sample.bug_count
        prev_rejected = rejected
        if on_hour is not None:
            current_labels = tester.diversity.labels
            new_labels = sorted(current_labels - known_labels)
            known_labels.update(new_labels)
            new_incidents = list(tester.bug_log.incidents[incident_watermark:])
            incident_watermark = len(tester.bug_log.incidents)
            on_hour(HourRecord(hour=hour, sample=sample, new_labels=new_labels,
                               new_incidents=new_incidents))
    result.bug_log = tester.bug_log
    return result


# ----------------------------------------------------------- tester factories


def tqs_variant_name(config: CampaignConfig) -> str:
    """The Table 5 variant name implied by a campaign's ablation switches."""
    if not config.use_noise:
        return "TQS!Noise"
    if not config.use_ground_truth:
        return "TQS!GT"
    if not config.use_kqe:
        return "TQS!KQE"
    return "TQS"


def build_tqs_tester(dialect: DialectProfile, config: CampaignConfig) -> TQS:
    """Construct the DSG + engine + TQS stack for one campaign (or shard)."""
    dsg = DSG(config.dsg_config())
    engine = Engine(dsg.database, dialect)
    return TQS(
        dsg,
        engine,
        TQSConfig(
            use_ground_truth=config.use_ground_truth,
            use_kqe=config.use_kqe,
            seed=config.seed,
        ),
    )


def build_baseline_tester(baseline: BaselineTester, dialect: DialectProfile,
                          config: CampaignConfig) -> BaselineTester:
    """Bind a baseline tester to a freshly generated database and engine."""
    dsg = DSG(config.dsg_config())
    engine = Engine(dsg.database, dialect)
    baseline.bind(dsg, engine, seed=config.seed)
    return baseline


def build_differential_tester(backend: BackendAdapter, config: CampaignConfig,
                              reference: Optional[Engine] = None,
                              differential: Optional[DifferentialConfig] = None,
                              pipeline: Optional[PipelineConfig] = None,
                              query_cache: Optional[QueryCache] = None
                              ) -> DifferentialTester:
    """Deploy a DSG database into *backend* and wrap it in a tester.

    ``config.use_query_cache`` attaches a fresh
    :class:`~repro.core.qcache.QueryCache` serving both reference results and
    the backend's rendered SQL (pass *query_cache* to share one across
    testers, e.g. for repeat-campaign benches).

    A failed deploy (schema rejected, data unloadable) closes the adapter
    before re-raising, so callers that never obtain a tester cannot leak a
    connection.
    """
    dsg = DSG(config.dsg_config())
    differential = differential or DifferentialConfig(
        use_kqe=config.use_kqe, seed=config.seed
    )
    reference = reference or reference_engine(dsg.database)
    if query_cache is None and config.use_query_cache:
        query_cache = QueryCache()
    if query_cache is not None and hasattr(backend, "query_cache"):
        backend.query_cache = query_cache
    try:
        backend.deploy(dsg.database)
    except Exception:
        backend.close()
        raise
    return DifferentialTester(dsg, backend, reference=reference,
                              config=differential, pipeline=pipeline,
                              query_cache=query_cache)


# ------------------------------------------------------------ campaign kinds


def run_tqs_campaign(dialect: DialectProfile,
                     config: Optional[CampaignConfig] = None,
                     on_hour: Optional[OnHour] = None) -> CampaignResult:
    """Run TQS against one simulated DBMS for a budgeted number of hours.

    Deprecated thin wrapper: prefer ``run_campaign(CampaignSpec(kind="tqs",
    dialect=...))``.  Kept for callers injecting a live
    :class:`DialectProfile`.
    """
    config = config or CampaignConfig()
    tqs = build_tqs_tester(dialect, config)
    result = CampaignResult(tool=tqs_variant_name(config), dbms=dialect.name,
                            dataset=config.dataset)
    return run_campaign_loop(tqs, result, config.hours, config.queries_per_hour,
                             on_hour=on_hour)


def run_baseline_campaign(baseline: BaselineTester, dialect: DialectProfile,
                          config: Optional[CampaignConfig] = None,
                          on_hour: Optional[OnHour] = None) -> CampaignResult:
    """Run one SQLancer-style baseline for the same budget.

    Deprecated thin wrapper: prefer ``run_campaign(CampaignSpec(
    kind="baseline", baseline=...))``.  Kept for callers injecting a live
    :class:`BaselineTester`.
    """
    config = config or CampaignConfig()
    baseline = build_baseline_tester(baseline, dialect, config)
    result = CampaignResult(tool=baseline.name, dbms=dialect.name,
                            dataset=config.dataset)
    return run_campaign_loop(baseline, result, config.hours,
                             config.queries_per_hour, on_hour=on_hour)


def run_differential_campaign(backend: BackendAdapter,
                              config: Optional[CampaignConfig] = None,
                              reference: Optional[Engine] = None,
                              differential: Optional[DifferentialConfig] = None,
                              pipeline: Optional[PipelineConfig] = None,
                              on_hour: Optional[OnHour] = None) -> CampaignResult:
    """Run the TQS generator differentially against a real (or wrapped) backend.

    Deprecated thin wrapper: prefer ``run_campaign(CampaignSpec(
    kind="differential", backend=...))``.  Kept for callers injecting a live
    adapter, reference engine or pipeline config.

    The DSG-generated, noise-injected database is deployed into *backend*
    (rendered CREATE TABLE / INSERT for real engines), then every generated
    query executes on both the bug-free reference executor and the backend; any
    normalized-result disagreement is recorded as a bug incident.  The returned
    :class:`CampaignResult` carries the same per-hour series as the simulated
    campaigns, so the analysis/reporting layer works unchanged.

    *pipeline* selects the overlapped execution schedule: with a
    ``batch_size`` above 1, target and reference executions run concurrently
    (see :mod:`repro.core.execpipe`) with bit-identical verdicts to the
    default serial path.
    """
    config = config or CampaignConfig()
    tester: Optional[DifferentialTester] = None
    try:
        tester = build_differential_tester(backend, config, reference=reference,
                                           differential=differential,
                                           pipeline=pipeline)
        result = CampaignResult(tool="TQS-differential", dbms=backend.name,
                                dataset=config.dataset)
        return run_campaign_loop(tester, result, config.hours,
                                 config.queries_per_hour, on_hour=on_hour)
    finally:
        # The tester's close() flushes pipeline threads and closes the
        # adapter; when the build itself failed there is no tester, but the
        # adapter may still hold a connection (close() is idempotent).
        if tester is not None:
            tester.close()
        else:
            backend.close()


def run_ablation(dialect: DialectProfile, base_config: Optional[CampaignConfig] = None
                 ) -> Dict[str, CampaignResult]:
    """Run the four Table 5 variants against one DBMS."""
    base_config = base_config or CampaignConfig()
    variants = {
        "TQS": {},
        "TQS!Noise": {"use_noise": False},
        "TQS!GT": {"use_ground_truth": False},
        "TQS!KQE": {"use_kqe": False},
    }
    results: Dict[str, CampaignResult] = {}
    for name, overrides in variants.items():
        config = CampaignConfig(**{**base_config.__dict__, **overrides})
        results[name] = run_tqs_campaign(dialect, config)
    return results
