"""Network-level calibration and trust.

Runs the full automatic-calibration pipeline over every node in a
crowd-sourced network ("this technique is then applied to all sensor
nodes within the network", §2) and scores each node's *trustworthiness*
— the §5 "establishing trust" direction: operators are paid, so
uploaded data must be checked for fabrication, not just quality.

Trust checks implemented:

- **ghost check** — reported ICAO addresses that do not exist in the
  independent ground truth (replayed or invented traffic);
- **too-perfect check** — a node that receives essentially *every*
  aircraft including distant, low-elevation ones in all directions is
  statistically implausible for any real installation;
- **RSSI-plausibility check** — real per-aircraft RSSI falls with
  log-distance; fabricated constant RSSI shows no such trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.airspace.flightradar import FlightRadarService
from repro.airspace.traffic import TrafficSimulator
from repro.cellular.cellmapper import TowerDatabase
from repro.core.classify import (
    IndoorOutdoorClassifier,
    extract_features,
)
from repro.core.directional import DirectionalEvaluator
from repro.core.fov import KnnFovEstimator
from repro.core.frequency import FrequencyEvaluator
from repro.core.abs_power import (
    AbsolutePowerCalibration,
    AbsolutePowerCalibrator,
)
from repro.core.observations import DirectionalScan
from repro.core.position_check import PositionVerifier
from repro.core.report import CalibrationReport, ClaimViolation
from repro.fm.tower import FmTower
from repro.node.sensor import SensorNode
from repro.tv.tower import TvTower

if TYPE_CHECKING:
    # Imported lazily: repro.node.fabrication itself imports
    # repro.core.observations, and a module-level import here would
    # close that cycle during package initialization.
    from repro.node.fabrication import FabricationStrategy


@dataclass(frozen=True)
class TrustCheck:
    """One trust check's outcome."""

    name: str
    passed: bool
    score: float
    detail: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1]: {self.score}")


@dataclass
class TrustAssessment:
    """Aggregated trust verdict for one node's uploaded scan."""

    node_id: str
    checks: List[TrustCheck] = field(default_factory=list)

    def trust_score(self) -> float:
        """Product of check scores (any hard failure tanks it)."""
        score = 1.0
        for check in self.checks:
            score *= check.score
        return score

    def is_trustworthy(self, threshold: float = 0.5) -> bool:
        return self.trust_score() >= threshold


@dataclass
class TrustEvaluator:
    """Scores a reported scan against independent ground truth.

    Attributes:
        max_ghost_fraction: tolerated fraction of reported aircraft
            absent from ground truth. The tracker is itself
            crowd-sourced: a few-percent coverage gap makes an honest
            node's decodes of untracked aircraft look like ghosts
            (see the ground-truth-coverage ablation), so the
            tolerance must sit well above the expected gap rate while
            staying far below what replay/padding adversaries produce
            (tens of percent).
        perfect_rate_threshold: reception rate above which the
            too-perfect check engages.
        far_range_km: aircraft beyond this range count as "far" for
            the too-perfect check.
    """

    max_ghost_fraction: float = 0.10
    perfect_rate_threshold: float = 0.98
    far_range_km: float = 70.0

    def assess(self, scan: DirectionalScan) -> TrustAssessment:
        assessment = TrustAssessment(node_id=scan.node_id)
        assessment.checks.append(self._ghost_check(scan))
        assessment.checks.append(self._too_perfect_check(scan))
        assessment.checks.append(self._rssi_check(scan))
        return assessment

    def _ghost_check(self, scan: DirectionalScan) -> TrustCheck:
        reported = len(scan.received) + len(scan.ghost_icaos)
        if reported == 0:
            return TrustCheck(
                "ghost", True, 1.0, "no reported aircraft"
            )
        fraction = len(scan.ghost_icaos) / reported
        passed = fraction <= self.max_ghost_fraction
        # Smooth penalty: full credit at 0, zero by 4x the tolerance.
        slack = self.max_ghost_fraction * 4.0
        score = max(0.0, 1.0 - fraction / slack) if slack > 0 else 0.0
        if fraction == 0.0:
            score = 1.0
        return TrustCheck(
            "ghost",
            passed,
            score,
            f"{len(scan.ghost_icaos)} ghost aircraft "
            f"({fraction:.1%} of reported)",
        )

    def _too_perfect_check(self, scan: DirectionalScan) -> TrustCheck:
        far = [
            o
            for o in scan.observations
            if o.ground_range_km >= self.far_range_km
        ]
        if len(scan.observations) < 10 or len(far) < 5:
            return TrustCheck(
                "too_perfect", True, 1.0, "insufficient traffic to judge"
            )
        total_rate = scan.reception_rate
        far_rate = sum(1 for o in far if o.received) / len(far)
        suspicious = (
            total_rate >= self.perfect_rate_threshold
            and far_rate >= self.perfect_rate_threshold
        )
        score = 0.2 if suspicious else 1.0
        return TrustCheck(
            "too_perfect",
            not suspicious,
            score,
            f"reception rate {total_rate:.1%}, far-aircraft rate "
            f"{far_rate:.1%}",
        )

    def _rssi_check(self, scan: DirectionalScan) -> TrustCheck:
        """RSSI plausibility.

        Real per-aircraft RSSI spreads widely — transponder power
        alone varies 75-500 W (the paper's reason for distrusting raw
        RSSI), plus path loss over 5-100 km and obstruction losses.
        Fabricated data shows a near-constant RSSI, and a *positive*
        RSSI/log-distance trend is physically backwards.
        """
        points = [
            (math.log10(max(o.ground_range_m, 1.0)), o.mean_rssi_dbfs)
            for o in scan.received
            if o.mean_rssi_dbfs is not None
        ]
        if len(points) < 8:
            return TrustCheck(
                "rssi", True, 1.0, "too few RSSI samples to judge"
            )
        x = np.asarray([p[0] for p in points])
        y = np.asarray([p[1] for p in points])
        spread = float(np.std(y))
        if spread < 1.5:
            return TrustCheck(
                "rssi",
                False,
                0.2,
                f"implausibly uniform RSSI (std {spread:.2f} dB)",
            )
        corr = float(np.corrcoef(x, y)[0, 1])
        if corr > 0.3:
            return TrustCheck(
                "rssi",
                False,
                0.6,
                f"RSSI increases with distance (corr {corr:+.2f})",
            )
        return TrustCheck(
            "rssi",
            True,
            1.0,
            f"RSSI std {spread:.1f} dB, distance corr {corr:+.2f}",
        )


@dataclass
class NodeAssessment:
    """Everything the service concludes about one node."""

    node_id: str
    report: CalibrationReport
    trust: TrustAssessment
    claim_violations: List[ClaimViolation] = field(default_factory=list)
    abs_power: Optional[AbsolutePowerCalibration] = None

    def summary(self) -> str:
        flags = "; ".join(
            v.claim for v in self.claim_violations
        ) or "none"
        return (
            f"{self.node_id}: quality "
            f"{self.report.overall_score():.2f}, trust "
            f"{self.trust.trust_score():.2f}, claim violations: {flags}"
        )


@dataclass(frozen=True)
class AssessmentFailure:
    """A node whose assessment raised instead of completing.

    A crowd-sourced network always contains some nodes that crash
    mid-measurement (flaky hardware, malformed uploads); one of them
    must not sink the calibration run for everyone else.
    """

    node_id: str
    error: str
    exception_type: str


class NetworkAssessments(Dict[str, "NodeAssessment"]):
    """Per-node assessments, plus the nodes that failed outright.

    Behaves exactly like the plain ``{node_id: NodeAssessment}`` dict
    :meth:`CalibrationService.evaluate_network` historically returned;
    nodes whose evaluation raised are absent from the mapping and
    recorded in :attr:`failures` instead.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.failures: Dict[str, AssessmentFailure] = {}
        #: Campaign-level counters (path-cache hits, failed jobs, ...)
        #: attached by the producer; empty for plain batch runs.
        self.metrics: Dict[str, Union[int, float]] = {}


@dataclass
class CalibrationService:
    """Runs the whole pipeline over a network of nodes.

    Attributes:
        traffic: shared traffic picture (all nodes are in one metro).
        ground_truth: the flight ground-truth service.
        cell_towers: regional tower database.
        tv_towers: regional TV transmitters.
        use_batch: run both evaluators through their vectorized
            pipelines; ``False`` runs their scalar oracles instead.
    """

    traffic: TrafficSimulator
    ground_truth: FlightRadarService
    cell_towers: TowerDatabase
    tv_towers: List[TvTower] = field(default_factory=list)
    fm_towers: List[FmTower] = field(default_factory=list)
    trust_evaluator: TrustEvaluator = field(default_factory=TrustEvaluator)
    classifier: IndoorOutdoorClassifier = field(
        default_factory=IndoorOutdoorClassifier
    )
    use_batch: bool = True

    def evaluate_node(
        self,
        node: SensorNode,
        seed: int = 0,
        fabrication: Optional[FabricationStrategy] = None,
    ) -> NodeAssessment:
        """Run both evaluations, trust checks, and claim verification.

        ``fabrication`` lets experiments inject an adversarial
        operator between the honest measurement and the service.
        """
        rng = np.random.default_rng(seed)
        evaluator = DirectionalEvaluator(
            node=node,
            traffic=self.traffic,
            ground_truth=self.ground_truth,
            use_batch=self.use_batch,
        )
        scan = evaluator.run(rng)
        if fabrication is not None:
            scan = fabrication.fabricate(scan, rng)

        fov = KnnFovEstimator().estimate(scan)
        freq_eval = FrequencyEvaluator(
            node=node,
            cell_towers=self.cell_towers,
            tv_towers=self.tv_towers,
            fm_towers=self.fm_towers,
            use_batch=self.use_batch,
        )
        profile = freq_eval.run(rng)
        features = extract_features(scan, fov, profile)
        classification = self.classifier.classify(features)
        report = CalibrationReport(
            node_id=node.node_id,
            scan=scan,
            fov=fov,
            profile=profile,
            features=features,
            classification=classification,
        )
        trust = self.trust_evaluator.assess(scan)
        violations = (
            report.verify_claims(node.claims) if node.claims else []
        )
        if node.claims is not None:
            position_result = PositionVerifier().verify(
                scan, node.claims.position
            )
            if not position_result.consistent:
                violations.append(
                    ClaimViolation(
                        claim="claimed position",
                        evidence=(
                            "reception cloud centers "
                            f"{position_result.centroid_offset_km:.0f}"
                            " km from the claimed location"
                            + (
                                f"; {position_result.impossible_receptions}"
                                " receptions impossible from there"
                                if position_result.impossible_receptions
                                else ""
                            )
                        ),
                    )
                )
        abs_power = AbsolutePowerCalibrator().calibrate(
            node,
            profile,
            self.tv_towers,
            self.fm_towers,
            fov=fov,
        )
        return NodeAssessment(
            node_id=node.node_id,
            report=report,
            trust=trust,
            claim_violations=violations,
            abs_power=abs_power,
        )

    def evaluate_network(
        self,
        nodes: List[SensorNode],
        seed: int = 0,
        fabrications: Optional[Dict[str, FabricationStrategy]] = None,
    ) -> NetworkAssessments:
        """Evaluate every node; returns assessments keyed by node id.

        A node that raises during assessment is recorded in the
        result's ``failures`` map instead of aborting the whole run —
        the remaining nodes are still evaluated, with the same
        per-node seeds they would have gotten in a clean run.
        """
        fabrications = fabrications or {}
        out = NetworkAssessments()
        for i, node in enumerate(nodes):
            try:
                out[node.node_id] = self.evaluate_node(
                    node,
                    seed=seed + i,
                    fabrication=fabrications.get(node.node_id),
                )
            except Exception as exc:  # noqa: BLE001 - isolate the node
                out.failures[node.node_id] = AssessmentFailure(
                    node_id=node.node_id,
                    error=str(exc),
                    exception_type=type(exc).__name__,
                )
        return out
