"""Fleet campaigns: calibrate a whole network as one resumable run.

A campaign takes a list of :class:`CalibrationJob` specs and drives
them to terminal states through the cache and the worker pool, in
that order:

1. jobs whose content key is already in the result cache are
   restored without recomputation;
2. everything else runs exactly once; a job that raises ends FAILED
   without sinking the campaign. A job is a pure function of its
   content key, so running it again would raise again.

Every finished job is put into the result cache as it completes, so
with ``cache_dir`` set a killed (or ``stop_after``-limited) campaign
resumes from its last completed job: rerun it on the same directory
and the done jobs are cache hits. Failed and deferred jobs are never
cached, so they run again. The summary ledger and metrics (jobs run,
jobs failed, cache hits, latency percentiles) make partial runs
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.network import (
    AssessmentFailure,
    NetworkAssessments,
    NodeAssessment,
)
from repro.engines import path_cache_stats, record_path_cache_metrics
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import (
    CalibrationJob,
    NodeSpec,
    WorldSpec,
)
from repro.core.metrics import MetricsRegistry
from repro.runtime.workers import (
    Runner,
    execute_job,
    run_jobs,
    seed_world_cache,
)

if TYPE_CHECKING:
    from repro.experiments.common import World

#: The paper-standard 12-node fleet: 4 rooftop, 4 window, 4 indoor;
#: one damaged feedline, two cheating operators.
_FLEET_FABRICATIONS = {
    "window-3": "omniscient",
    "indoor-3": "ghost:30",
}


def standard_fleet_specs() -> Tuple[NodeSpec, ...]:
    """Node specs for the standard 12-node fleet, in seed order."""
    specs: List[NodeSpec] = []
    for cls in ("rooftop", "window", "indoor"):
        for i in range(4):
            node_id = f"{cls}-{i}"
            specs.append(
                NodeSpec(
                    node_id=node_id,
                    location=cls,
                    antenna=(
                        "damaged_cable"
                        if node_id == "rooftop-3"
                        else "standard"
                    ),
                    fabrication=_FLEET_FABRICATIONS.get(node_id),
                )
            )
    return tuple(specs)


def fleet_jobs(
    seed: int = 95,
    world: Optional[WorldSpec] = None,
    specs: Optional[Sequence[NodeSpec]] = None,
    fail_node: Optional[str] = None,
) -> List[CalibrationJob]:
    """Jobs for a fleet campaign, seeded exactly like the serial path.

    Per-node seeds are ``seed + index`` in spec order — the same
    assignment ``CalibrationService.evaluate_network`` makes, so the
    runtime's results are bit-identical to the historical loop.
    ``fail_node`` swaps that node's fabrication for the ``crash``
    fault injector.
    """
    world = world or WorldSpec()
    specs = list(specs if specs is not None else standard_fleet_specs())
    jobs: List[CalibrationJob] = []
    for i, spec in enumerate(specs):
        if fail_node is not None and spec.node_id == fail_node:
            spec = replace(spec, fabrication="crash")
        jobs.append(CalibrationJob(node=spec, world=world, seed=seed + i))
    return jobs


@dataclass
class CampaignConfig:
    """Execution policy for one campaign run.

    None of it joins :meth:`CalibrationJob.content_key`: it changes
    *how* the jobs run, never what they compute. Stage-result reuse is
    the process-global path cache's own switch
    (:func:`repro.engines.configure_path_cache`), which campaigns
    leave alone.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    stop_after: Optional[int] = None  # run at most N jobs, then stop

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.stop_after is not None and self.stop_after < 0:
            raise ValueError(
                f"stop_after must be >= 0: {self.stop_after}"
            )


@dataclass
class JobLedgerEntry:
    """How one job reached its current state, and from where."""

    job_id: str
    key: str
    state: str  # "done" | "failed" | "pending"
    source: str  # "run" | "cache" | "deferred"
    error: Optional[str] = None
    duration_s: float = 0.0


@dataclass
class CampaignResult:
    """Everything a finished (possibly partial) campaign produced."""

    assessments: Dict[str, NodeAssessment]
    ledger: Dict[str, JobLedgerEntry]
    metrics: Dict[str, Union[int, float]]

    def state_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.ledger.values():
            out[entry.state] = out.get(entry.state, 0) + 1
        return out

    def source_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.ledger.values():
            out[entry.source] = out.get(entry.source, 0) + 1
        return out

    def failed(self) -> List[JobLedgerEntry]:
        return [
            e for e in self.ledger.values() if e.state == "failed"
        ]

    def network(self) -> NetworkAssessments:
        """The done assessments, failed jobs and campaign metrics.

        Ledger entries that ended FAILED become
        :class:`~repro.core.network.AssessmentFailure` records (job
        ids are node ids in calibration campaigns), so a partial
        campaign serves and serializes exactly what it computed and
        admits what it didn't.
        """
        network = NetworkAssessments(self.assessments)
        for entry in self.failed():
            network.failures[entry.job_id] = AssessmentFailure(
                node_id=entry.job_id,
                error=entry.error or "failed",
                exception_type="JobFailed",
            )
        network.metrics = dict(self.metrics)
        return network

    def summary_text(self) -> str:
        """Human-readable one-paragraph campaign summary."""
        states = self.state_counts()
        sources = self.source_counts()
        lines = [
            "Campaign summary: "
            + ", ".join(
                f"{states.get(s, 0)} {s}"
                for s in ("done", "failed", "pending")
            ),
            "  sources: "
            + ", ".join(
                f"{n} from {src}" for src, n in sorted(sources.items())
            ),
            f"  jobs run: {self.metrics.get('jobs_done', 0)}"
            f" (+{self.metrics.get('jobs_failed', 0)} failed),"
            f" cache hits: {self.metrics.get('cache_hits', 0)}",
        ]
        p50 = self.metrics.get("job_latency_p50_s")
        p95 = self.metrics.get("job_latency_p95_s")
        if p50 is not None:
            lines.append(
                f"  job latency: p50 {p50:.2f}s, p95 {p95:.2f}s"
            )
        for entry in self.failed():
            lines.append(f"  FAILED {entry.job_id}: {entry.error}")
        return "\n".join(lines)


class FleetCampaign:
    """Orchestrates one fleet calibration campaign end to end."""

    def __init__(
        self,
        jobs: Sequence[CalibrationJob],
        config: Optional[CampaignConfig] = None,
        world: Optional[World] = None,
        cache: Optional[ResultCache] = None,
        runner: Optional[Runner] = None,
    ) -> None:
        self.jobs = list(jobs)
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in campaign")
        self.config = config or CampaignConfig()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(self.config.cache_dir)
        )
        self.runner = runner if runner is not None else execute_job
        if world is not None:
            # Share the caller's already-built world with thread and
            # serial workers instead of rebuilding it from its spec.
            seed_world_cache(WorldSpec.from_world(world), world)

    # -- the run ----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Drive every job to a terminal state; see the module doc.

        The process-global path cache's stats delta over the run lands
        in the result metrics, so each campaign reports its own cache
        effectiveness even though entries survive across campaigns
        (the warm-run win).
        """
        path_cache_before = path_cache_stats()
        config = self.config
        metrics = MetricsRegistry()
        ledger: Dict[str, JobLedgerEntry] = {}
        assessments: Dict[str, NodeAssessment] = {}
        keys = {job.job_id: job.content_key() for job in self.jobs}

        to_run: List[CalibrationJob] = []
        for job in self.jobs:
            key = keys[job.job_id]
            cached = self.cache.get(key)
            if cached is not None:
                assessments[job.job_id] = cached
                ledger[job.job_id] = JobLedgerEntry(
                    job_id=job.job_id,
                    key=key,
                    state="done",
                    source="cache",
                )
                continue
            to_run.append(job)

        deferred = 0
        if config.stop_after is not None:
            deferred = max(len(to_run) - config.stop_after, 0)
            for job in to_run[config.stop_after:]:
                ledger[job.job_id] = JobLedgerEntry(
                    job_id=job.job_id,
                    key=keys[job.job_id],
                    state="pending",
                    source="deferred",
                )
            to_run = to_run[: config.stop_after]

        for outcome in run_jobs(to_run, config.workers, self.runner):
            key = keys[outcome.job_id]
            if outcome.state == "done":
                assert outcome.assessment is not None
                assessments[outcome.job_id] = outcome.assessment
                # Cache every finished job at once: with a cache_dir,
                # a kill at any point loses only the jobs in flight.
                self.cache.put(key, outcome.assessment)
                metrics.incr("jobs_done")
                metrics.observe("job_latency", outcome.duration_s)
            else:
                metrics.incr("jobs_failed")
            ledger[outcome.job_id] = JobLedgerEntry(
                job_id=outcome.job_id,
                key=key,
                state=outcome.state,
                source="run",
                error=outcome.error,
                duration_s=outcome.duration_s,
            )

        record_path_cache_metrics(metrics, path_cache_before)
        summary = metrics.summary()
        summary["cache_hits"] = self.cache.hits
        summary["cache_misses"] = self.cache.misses
        # Jobs left pending by ``stop_after``: a fleet with deferred
        # jobs is incomplete, and saying so travels with the metrics.
        summary["jobs_deferred"] = deferred
        # Re-key into job order: with workers > 1 the dicts fill in
        # completion order, and downstream stable sorts (marketplace
        # ranking) must not depend on scheduling.
        return CampaignResult(
            assessments={
                j.job_id: assessments[j.job_id]
                for j in self.jobs
                if j.job_id in assessments
            },
            ledger={
                j.job_id: ledger[j.job_id]
                for j in self.jobs
                if j.job_id in ledger
            },
            metrics=summary,
        )


def run_fleet_campaign(
    seed: int = 95,
    config: Optional[CampaignConfig] = None,
    world: Optional[World] = None,
    fail_node: Optional[str] = None,
) -> CampaignResult:
    """Build and run the standard 12-node fleet campaign."""
    jobs = fleet_jobs(
        seed=seed,
        world=None if world is None else WorldSpec.from_world(world),
        fail_node=fail_node,
    )
    campaign = FleetCampaign(jobs, config=config, world=world)
    return campaign.run()
