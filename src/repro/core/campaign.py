"""Testing campaigns: the simulated 24-hour runs behind every figure and table.

The paper runs each tool for 24 wall-clock hours and reports per-hour series
(diversity, bug count) plus end-of-run totals (Table 4, Table 5).  A laptop
reproduction cannot spend 24 real hours per cell, so a campaign is budgeted:
each simulated "hour" corresponds to a fixed number of generated queries, and
all per-hour series are reported against simulated hours.  Shapes (who grows
faster, where curves flatten) are preserved; absolute per-hour magnitudes simply
scale with the per-hour budget.

:func:`run_campaign` is the one way to run a whole campaign.  Every campaign
kind (TQS, baseline, differential) gets its tester from one dispatch,
:func:`build_campaign_tester`, and runs through one iteration loop,
:func:`run_campaign_loop`: a tester object exposing ``run_iteration()`` plus the
cumulative counters is driven hour by hour, rejected generations are counted
instead of silently swallowed, and an optional per-hour hook receives the hour's
deltas — the seam the multi-process parallel runner
(:mod:`repro.core.parallel`) uses for index synchronization and merging.  The
pool's workers build their testers through the same dispatch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro import obs
from repro.backends import backend_from_name
from repro.backends.base import BackendAdapter
from repro.baselines import make_baseline
from repro.baselines.base import BaselineTester
from repro.core.bug_report import BugIncident, BugLog
from repro.core.differential import DifferentialConfig, DifferentialTester
from repro.core.tqs import TQS, TQSConfig
from repro.dsg.pipeline import DSG, DSGConfig
from repro.dsg.query_gen import GenerationConfig
from repro.engine.dialects import ALL_DIALECTS, DialectProfile, dialect_by_name
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


def campaign_field(default: Any, help: str, flag: Optional[str] = None,
                   **metadata: Any) -> Any:
    """One campaign field: its default, help text and CLI *flag* (None: none).

    Optional *metadata*: ``choices``, ``kinds`` (the campaign kinds that
    honour a non-default value; absent: all) and ``cli_default``.
    """
    return field(default=default, metadata=dict(metadata, help=help, flag=flag))


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one TQS campaign or shard — the single declaration.

    Each field is declared once, with :func:`campaign_field` metadata; the
    CLI flags, the wire codec, serve's campaign echo and the kind checks of
    :func:`check_campaign` are all derived from ``dataclasses.fields()``.
    """

    dataset: str = campaign_field(
        "shopping", "DSG dataset name (default: shopping)", "--dataset")
    dataset_rows: int = campaign_field(
        150, "wide-table rows per shard (default: 150)", "--dataset-rows")
    hours: int = campaign_field(24, "simulated hours (default: 24)", "--hours")
    queries_per_hour: int = campaign_field(
        12, "total generation budget per hour, across all shards "
            "(default: 12)", "--queries-per-hour")
    seed: int = campaign_field(
        5, "campaign seed; shard seeds are derived from it (default: 5)",
        "--seed")
    # The Table 5 ablation switches and the hint-set cap stay off the CLI.
    use_noise: bool = campaign_field(True, "DSG noise rows (off: TQS!Noise)")
    use_ground_truth: bool = campaign_field(True, "ground truth (off: TQS!GT)")
    use_kqe: bool = campaign_field(True, "KQE-guided walks (off: TQS!KQE)")
    max_hint_sets: Optional[int] = campaign_field(None, "hint sets per query cap")
    # Widened-grammar probabilities.  0.0 keeps the classic join-query-only
    # grammar and, by the no-draw gating in the generator, byte-identical
    # RNG streams.  Only differential campaigns honour them: tqs generates
    # through generate_query (no set operations or CTEs) and its wide-table
    # ground truth cannot evaluate a scalar subquery; baselines generate
    # their own join queries.
    setop_probability: float = campaign_field(
        0.0, "probability a generated statement becomes a UNION / UNION ALL "
             "/ INTERSECT / EXCEPT compound (differential campaigns; "
             "default: 0)", "--setop-probability", kinds=("differential",))
    scalar_subquery_probability: float = campaign_field(
        0.0, "probability of injecting an uncorrelated scalar subquery into "
             "a generated query (differential campaigns; default: 0)",
        "--scalar-subquery-probability", kinds=("differential",))
    cte_probability: float = campaign_field(
        0.0, "probability a generated statement is wrapped in a WITH clause "
             "(differential campaigns; default: 0)", "--cte-probability",
        kinds=("differential",))

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


def config_values(config: CampaignConfig) -> Dict[str, Any]:
    """The :class:`CampaignConfig` fields of *config* (or of a spec), in order."""
    return {declared.name: getattr(config, declared.name)
            for declared in fields(CampaignConfig)}


@dataclass(frozen=True)
class CampaignSpec(CampaignConfig):
    """One campaign, fully described by plain data — the stable public API.

    A spec is a :class:`CampaignConfig` plus the six fields, declared here
    the same way, that say how the campaign runs; it inherits every per-shard
    field rather than re-declaring it, so a new field is declared once and
    its CLI flag, wire codec, serve echo and kind check follow.  It names the
    dialect, baseline and backend by string, so it can be stored, diffed,
    hashed, shipped across processes and replayed.  :func:`run_campaign` is
    the single entrypoint consuming it.

    ``kind`` selects the campaign flavour:

    * ``"tqs"`` — TQS against the simulated ``dialect``;
    * ``"baseline"`` — SQLancer-style ``baseline`` against ``dialect``;
    * ``"differential"`` — TQS generation differentially against the real
      ``backend`` adapter.

    ``workers > 1`` routes through the multiprocessing pool
    (:mod:`repro.core.parallel`) and returns its merged
    ``ParallelCampaignResult`` instead of a :class:`CampaignResult`;
    ``workers < 1`` is rejected.
    """

    kind: str = campaign_field(
        "tqs", "campaign kind (default: tqs)", "--kind",
        choices=("tqs", "baseline", "differential"))
    dialect: str = campaign_field(
        "SimMySQL", "simulated DBMS for tqs/baseline campaigns", "--dialect",
        choices=tuple(profile.name for profile in ALL_DIALECTS))
    baseline: str = campaign_field(
        "", "baseline name for --kind baseline (default: NoRec)", "--baseline",
        cli_default="NoRec")
    backend: str = campaign_field(
        "sqlite", "backend name for --kind differential: 'sqlite', 'sim' or "
                  "'sim:<Dialect>' (default: sqlite)", "--backend")
    workers: int = campaign_field(
        1, "shard count: worker processes or TCP clients "
           "(default: %(default)s)", "--workers")

    def campaign_config(self) -> CampaignConfig:
        """The per-shard :class:`CampaignConfig` this spec implies."""
        return CampaignConfig(**config_values(self))


def check_campaign(spec: CampaignSpec) -> None:
    """Reject, as a :class:`CampaignError`, a campaign no path runs as declared.

    Every way in runs it (:func:`run_campaign`, ``campaign_shards`` behind
    ``run``, ``serve`` and verify-local): a value outside its field's ``choices``, or
    a non-default value the campaign's kind does not honour, is refused.
    """
    if spec.kind == "baseline" and not spec.baseline:
        raise CampaignError("baseline campaigns need a baseline name")
    if spec.workers < 1:
        raise CampaignError("at least one worker is required")
    for declared in fields(spec):
        value = getattr(spec, declared.name)
        choices = declared.metadata.get("choices")
        if choices is not None and value not in choices:
            raise CampaignError(
                f"unknown campaign {declared.name} {value!r}; expected one of "
                + ", ".join(repr(choice) for choice in choices))
        kinds = declared.metadata.get("kinds")
        if kinds is not None and spec.kind not in kinds and value != declared.default:
            raise CampaignError(
                f"{declared.name}={value!r} needs a {' or '.join(kinds)} "
                f"campaign, not {spec.kind!r}")


def run_campaign(spec: CampaignSpec, on_hour: Optional["OnHour"] = None):
    """Run the campaign *spec* describes; the single public entrypoint.

    Returns a :class:`CampaignResult`, or the parallel pool's merged
    ``ParallelCampaignResult`` when ``spec.workers > 1``.  A spec this path
    cannot honour is a :class:`CampaignError`, not a silent downgrade: every
    field is checked by :func:`check_campaign`, and the ``on_hour`` hook is a
    serial-path seam (the pool has its own coordinator-side hooks), so it
    needs ``workers == 1``.
    """
    check_campaign(spec)
    if on_hour is not None and spec.workers > 1:
        raise CampaignError("an on_hour hook needs workers=1")
    if spec.workers > 1:
        # Deferred import: the parallel runner imports this module.
        from repro.core.parallel import campaign_shards, run_parallel_shards

        return run_parallel_shards(campaign_shards(spec))
    config = spec.campaign_config()
    tester, tool, dbms = build_campaign_tester(
        spec.kind, config, dialect=spec.dialect, baseline=spec.baseline,
        backend=spec.backend,
    )
    result = CampaignResult(tool=tool, dbms=dbms, dataset=config.dataset)
    try:
        return run_campaign_loop(tester, result, config.hours,
                                 config.queries_per_hour, on_hour=on_hour)
    finally:
        # Differential testers own an adapter; close() is idempotent.
        closer = getattr(tester, "close", None)
        if closer is not None:
            closer()


def run_ablation(spec: CampaignSpec) -> Dict[str, CampaignResult]:
    """Run the four Table 5 variants of *spec*'s campaign."""
    variants = {
        "TQS": {},
        "TQS!Noise": {"use_noise": False},
        "TQS!GT": {"use_ground_truth": False},
        "TQS!KQE": {"use_kqe": False},
    }
    return {name: run_campaign(replace(spec, **overrides))
            for name, overrides in variants.items()}


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
    :class:`~repro.core.differential.DifferentialTester` all do.

    *queries_per_hour* may be a callable of the 1-based hour instead of a
    constant: the adaptive-budget worker uses that to apply the coordinator's
    per-round reallocations without forking the loop.

    An hour is *finished* by one function: it takes the hour's
    :class:`HourlySample`, adds the hour's ``campaign.*`` counter deltas and
    calls ``on_hour``.  In-process each hour is finished when its budget is
    spent.  A :class:`DifferentialTester` checks in a forked process where
    :func:`~repro.core.differential.checker_can_fork` allows it:
    ``run_iteration()`` then only generates and sends.  At an hour's end the
    loop records what it knows itself (queries generated, isomorphic sets,
    rejected generations, the hour's new labels), sends the checker an hour
    marker and goes on to the next hour; the hour is finished when the
    marker's answer arrives, once every answer of the hour is applied and
    the checker's telemetry absorbed.  So every sample, incident, ``on_hour``
    record and ``campaign.*`` counter equals the in-process loop's.  An hour
    with an ``on_hour`` hook, or with a callable *queries_per_hour*, settles
    before the next hour starts, since both can feed the next hour's
    generation; after the last hour the loop settles what is left.  The
    checker is told to exit when the loop ends; the tester's ``close()``
    reaps it.  Pool shards check in-process: they run in daemonic processes
    beside a heartbeat thread, both of which the fork rule refuses.
    """
    registry = obs.get_registry()
    rejected = 0
    known_labels: Set[str] = set()
    incident_watermark = 0
    # Counter baselines: testers hand cumulative counts to the loop, telemetry
    # counters want per-hour deltas (and must stay correct for testers that
    # are resumed with non-zero counts).
    previous = HourlySample(
        hour=0, queries_generated=tester.queries_generated,
        queries_executed=tester.queries_executed,
        isomorphic_sets=tester.explored_isomorphic_sets,
        bug_count=tester.bug_log.bug_count,
        bug_type_count=tester.bug_log.bug_type_count)

    def finish_hour(hour: int, generated: int, sets: int, rejections: int,
                    new_labels: List[str]) -> None:
        nonlocal previous, incident_watermark
        sample = HourlySample(
            hour=hour,
            queries_generated=generated,
            queries_executed=tester.queries_executed,
            isomorphic_sets=sets,
            bug_count=tester.bug_log.bug_count,
            bug_type_count=tester.bug_log.bug_type_count,
            generations_rejected=rejections,
        )
        result.samples.append(sample)
        registry.counter("campaign.hours").inc()
        registry.counter("campaign.queries_generated").inc(
            generated - previous.queries_generated)
        registry.counter("campaign.queries_executed").inc(
            sample.queries_executed - previous.queries_executed)
        registry.counter("campaign.novel_labels").inc(
            sets - previous.isomorphic_sets)
        registry.counter("campaign.bugs").inc(
            sample.bug_count - previous.bug_count)
        registry.counter("campaign.generations_rejected").inc(
            rejections - previous.generations_rejected)
        previous = sample
        if on_hour is not None:
            new_incidents = list(tester.bug_log.incidents[incident_watermark:])
            incident_watermark = len(tester.bug_log.incidents)
            on_hour(HourRecord(hour=hour, sample=sample, new_labels=new_labels,
                               new_incidents=new_incidents))

    forked = isinstance(tester, DifferentialTester) and tester.start_checker()
    barrier = on_hour is not None or callable(queries_per_hour)
    try:
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
            new_labels: List[str] = []
            if on_hour is not None:
                new_labels = sorted(tester.diversity.labels - known_labels)
                known_labels.update(new_labels)
            finish = functools.partial(
                finish_hour, hour, tester.queries_generated,
                tester.explored_isomorphic_sets, rejected, new_labels)
            if forked:
                tester.finish_hour(finish)
                if barrier:
                    tester.settle()
            else:
                finish()
        if forked:
            tester.settle()
    finally:
        if forked:
            tester.stop_checker()
    result.bug_log = tester.bug_log
    return result


# ----------------------------------------------------------- tester factories

Tester = Union[TQS, BaselineTester, DifferentialTester]


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
                              differential: Optional[DifferentialConfig] = None
                              ) -> DifferentialTester:
    """Deploy a DSG database into *backend* and wrap it in a tester.

    A failed build (DSG, schema rejected, data unloadable) closes the
    adapter before re-raising, so callers that never obtain a tester cannot
    leak a connection.
    """
    try:
        dsg = DSG(config.dsg_config())
        differential = differential or DifferentialConfig(
            use_kqe=config.use_kqe, seed=config.seed
        )
        reference = reference or reference_engine(dsg.database)
        backend.deploy(dsg.database)
        return DifferentialTester(dsg, backend, reference=reference,
                                  config=differential)
    except Exception:
        backend.close()
        raise


def build_campaign_tester(kind: str, config: CampaignConfig,
                          dialect: str = "SimMySQL", baseline: str = "",
                          backend: str = "sqlite"
                          ) -> Tuple[Tester, str, str]:
    """The tester of one campaign or shard, with its ``tool`` and ``dbms`` names.

    The single kind-to-tester dispatch: :func:`run_campaign` and the pool's
    workers both build through it.  *dialect*, *baseline* and *backend* are
    names, resolved here.  The campaign was checked on its way in
    (:func:`check_campaign`).
    """
    if kind == "differential":
        adapter = backend_from_name(backend)
        tester = build_differential_tester(adapter, config)
        return tester, "TQS-differential", adapter.name
    profile = dialect_by_name(dialect)
    if kind == "tqs":
        tqs = build_tqs_tester(profile, config)
        return tqs, tqs_variant_name(config), profile.name
    tester = build_baseline_tester(make_baseline(baseline), profile, config)
    return tester, tester.name, profile.name
