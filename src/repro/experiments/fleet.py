"""A full crowd-sourced fleet: the paper's §2 vision, end to end.

Twelve nodes across the metro — rooftops, windows, indoor installs,
one with damaged hardware, two with cheating operators — are all
calibrated automatically. The output is the marketplace view a renter
would see: nodes ranked by measured quality, with untrustworthy
uploads rejected outright. No human visited any site.

Since the runtime PR the calibration itself goes through
:mod:`repro.runtime`: every node becomes a :class:`CalibrationJob`
run exactly once by a worker pool, with a content-addressed result
cache, which is also what a stopped campaign resumes from when it is
rerun on the same ``cache_dir``. ``workers=1`` (the default) is the
serial degenerate case — per-node seeds are assigned exactly as the
historical ``evaluate_network`` loop did, so results are
bit-identical to the pre-runtime path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.network import NodeAssessment
from repro.experiments.common import World, build_world, format_table
from repro.node.sensor import SensorNode
from repro.runtime.campaign import (
    CampaignConfig,
    CampaignResult,
    fleet_jobs,
    run_fleet_campaign,
    standard_fleet_specs,
)

#: Node ids whose operators fabricate data in the standard fleet.
CHEATERS = ("indoor-3", "window-3")

#: Node ids with degraded hardware in the standard fleet.
DEGRADED = ("rooftop-3",)


@dataclass
class FleetResult:
    """The calibrated fleet."""

    assessments: Dict[str, NodeAssessment]
    cheaters: List[str]
    degraded: List[str]
    campaign: CampaignResult = field(repr=False)

    def marketplace(self) -> List[NodeAssessment]:
        """Trustworthy nodes, best quality first."""
        listed = [
            a
            for a in self.assessments.values()
            if a.trust.is_trustworthy()
        ]
        return sorted(
            listed,
            key=lambda a: a.report.overall_score(),
            reverse=True,
        )

    def rejected(self) -> List[str]:
        return sorted(
            node_id
            for node_id, a in self.assessments.items()
            if not a.trust.is_trustworthy()
        )


def build_fleet(world: World) -> List[SensorNode]:
    """Twelve nodes: 4 rooftop, 4 window, 4 indoor; one damaged."""
    return [
        spec.build(world) for spec in standard_fleet_specs()
    ]


def run_fleet(
    world: Optional[World] = None,
    seed: int = 95,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    max_jobs: Optional[int] = None,
    fail_node: Optional[str] = None,
) -> FleetResult:
    """Calibrate the whole fleet, adversaries included.

    Runs through the :mod:`repro.runtime` campaign machinery; the
    default arguments reproduce the historical serial run exactly.
    Stage-result reuse follows the process-global path cache
    (:func:`repro.engines.configure_path_cache`) — execution policy
    only, results are unchanged.
    """
    world = world or build_world()
    config = CampaignConfig(
        workers=workers, cache_dir=cache_dir, stop_after=max_jobs
    )
    campaign = run_fleet_campaign(
        seed=seed,
        config=config,
        world=world,
        fail_node=fail_node,
    )
    return FleetResult(
        assessments=campaign.assessments,
        cheaters=sorted(CHEATERS),
        degraded=list(DEGRADED),
        campaign=campaign,
    )


def format_marketplace(result: FleetResult) -> str:
    rows = []
    for rank, assessment in enumerate(result.marketplace(), start=1):
        note = ""
        if assessment.node_id in result.degraded:
            note = "degraded hardware"
        rows.append(
            [
                rank,
                assessment.node_id,
                f"{assessment.report.overall_score():.2f}",
                assessment.report.classification.installation,
                f"{assessment.trust.trust_score():.2f}",
                note or "-",
            ]
        )
    table = format_table(
        ["rank", "node", "quality", "class", "trust", "notes"], rows
    )
    rejected = ", ".join(result.rejected()) or "none"
    return f"{table}\n\nRejected (untrusted uploads): {rejected}"


__all__ = [
    "CHEATERS",
    "DEGRADED",
    "FleetResult",
    "build_fleet",
    "fleet_jobs",
    "format_marketplace",
    "run_fleet",
]
