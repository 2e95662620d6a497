"""repro.runtime — the parallel fleet-calibration runtime.

The paper's §2 vision is a *network* of crowd-sourced sensors
calibrated continuously; this package is the execution layer that
scales the per-node pipeline in :mod:`repro.core` from "a dozen nodes
in a for-loop" toward that fleet:

- :mod:`repro.runtime.jobs` — value-typed job specs with a
  deterministic content hash of (node config, world seed, pipeline
  version);
- :mod:`repro.runtime.workers` — runs each job exactly once, on a
  thread pool or, with ``workers=1``, inline in the calling thread
  (bit-identical to the historical loop); a job that raises ends
  FAILED;
- :mod:`repro.runtime.cache` — content-addressed result cache
  (memory + JSON-on-disk) so unchanged nodes skip recomputation;
- :mod:`repro.runtime.campaign` — whole-fleet orchestration with
  resume from the result cache, partial-failure tolerance, and a
  summary ledger.

Counters and latency percentiles come from
:mod:`repro.core.metrics`, shared with the stream and serve layers.

Entry points: ``python -m repro fleet --workers 4`` on the command
line, or :func:`repro.runtime.campaign.run_fleet_campaign` from code.
"""

from repro.runtime.cache import ResultCache
from repro.runtime.campaign import (
    CampaignConfig,
    CampaignResult,
    FleetCampaign,
    JobLedgerEntry,
    fleet_jobs,
    run_fleet_campaign,
    standard_fleet_specs,
)
from repro.runtime.jobs import (
    PIPELINE_VERSION,
    CalibrationJob,
    CrashingFabricator,
    InjectedFault,
    NodeSpec,
    WorldSpec,
    build_fabrication,
)
from repro.core.metrics import MetricsRegistry, percentile
from repro.runtime.workers import (
    JobOutcome,
    execute_job,
    run_jobs,
)

__all__ = [
    "PIPELINE_VERSION",
    "CalibrationJob",
    "CampaignConfig",
    "CampaignResult",
    "CrashingFabricator",
    "FleetCampaign",
    "InjectedFault",
    "JobLedgerEntry",
    "JobOutcome",
    "MetricsRegistry",
    "NodeSpec",
    "ResultCache",
    "WorldSpec",
    "build_fabrication",
    "execute_job",
    "fleet_jobs",
    "percentile",
    "run_fleet_campaign",
    "run_jobs",
    "standard_fleet_specs",
]
