"""Calibration reports: the deliverable of an automatic evaluation.

A :class:`CalibrationReport` bundles everything the pipeline learned
about one node — directional scan, field-of-view estimate, frequency
profile, installation classification — into per-band quality grades,
an overall quality score, and machine-checkable claim verification.
This is what a spectrum-sensing marketplace would attach to a node's
listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.classify import Classification, InstallationFeatures
from repro.core.fov import FieldOfViewEstimate
from repro.core.frequency import BandMeasurement, FrequencyProfile
from repro.core.observations import DirectionalScan
from repro.node.claims import NodeClaims

#: Excess-attenuation grade boundaries, dB.
_GRADE_EDGES = ((3.0, "A"), (8.0, "B"), (15.0, "C"), (25.0, "D"))

#: Per-band contribution of each grade to the frequency score.
_GRADE_SCORES = {"A": 1.0, "B": 0.8, "C": 0.55, "D": 0.3, "E": 0.1, "F": 0.0}


def grade_for_excess_db(excess_db: Optional[float]) -> str:
    """Letter grade for a band's excess attenuation (F = no decode)."""
    if excess_db is None:
        return "F"
    for edge, grade in _GRADE_EDGES:
        if excess_db <= edge:
            return grade
    return "E"


@dataclass(frozen=True)
class BandGrade:
    """Quality grade for one measured band."""

    label: str
    freq_hz: float
    grade: str
    excess_attenuation_db: Optional[float]


@dataclass(frozen=True)
class ClaimViolation:
    """One operator claim contradicted by measurement."""

    claim: str
    evidence: str


@dataclass
class CalibrationReport:
    """The complete automatic evaluation of one node.

    Attributes:
        node_id: node evaluated.
        scan: the §3.1 directional scan.
        fov: estimated field of view.
        profile: the §3.2 frequency profile.
        features: derived classifier features.
        classification: indoor/outdoor + installation class verdict.
    """

    node_id: str
    scan: DirectionalScan
    fov: FieldOfViewEstimate
    profile: FrequencyProfile
    features: InstallationFeatures
    classification: Classification
    band_grades: List[BandGrade] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.band_grades:
            self.band_grades = [
                BandGrade(
                    label=m.label,
                    freq_hz=m.freq_hz,
                    grade=grade_for_excess_db(m.excess_attenuation_db),
                    excess_attenuation_db=m.excess_attenuation_db,
                )
                for m in self.profile.measurements
            ]

    def scores(self) -> Tuple[float, float, float]:
        """``(directional, frequency, overall)`` quality scores, each 0-1.

        Directional is the open-horizon fraction. Frequency is the mean
        over measured bands of a per-band score: 1.0 for grade A down
        to 0.0 for F. Overall weighs the two equally. Every score
        method and serializer reads from here, so the formula lives in
        one place.
        """
        directional = self.fov.open_fraction()
        if self.band_grades:
            frequency = sum(
                _GRADE_SCORES[g.grade] for g in self.band_grades
            ) / len(self.band_grades)
        else:
            frequency = 0.0
        return directional, frequency, 0.5 * directional + 0.5 * frequency

    def directional_score(self) -> float:
        """0-1 score for angular coverage (open-horizon fraction)."""
        return self.scores()[0]

    def frequency_score(self) -> float:
        """0-1 score for spectral coverage (see :meth:`scores`)."""
        return self.scores()[1]

    def overall_score(self) -> float:
        """Combined quality score in [0, 1]."""
        return self.scores()[2]

    def verify_claims(self, claims: NodeClaims) -> List[ClaimViolation]:
        """Check operator claims against the measurements."""
        violations: List[ClaimViolation] = []
        if claims.outdoor and not self.classification.outdoor:
            violations.append(
                ClaimViolation(
                    claim="outdoor installation",
                    evidence=(
                        "classified as "
                        f"{self.classification.installation} "
                        f"(P[outdoor]="
                        f"{self.classification.outdoor_probability:.2f})"
                    ),
                )
            )
        if claims.unobstructed and self.fov.open_fraction() < 0.9:
            violations.append(
                ClaimViolation(
                    claim="unobstructed field of view",
                    evidence=(
                        f"only {self.fov.open_fraction():.0%} of the "
                        "horizon shows reception"
                    ),
                )
            )
        violations.extend(self._verify_frequency_range(claims))
        return violations

    def _verify_frequency_range(
        self, claims: NodeClaims
    ) -> List[ClaimViolation]:
        """Claimed-range check: dead measured bands inside the claim."""
        violations = []
        dead: List[BandMeasurement] = [
            m
            for m in self.profile.measurements
            if not m.decoded
            and claims.min_freq_hz <= m.freq_hz <= claims.max_freq_hz
        ]
        if dead:
            labels = ", ".join(
                f"{m.label} ({m.freq_hz / 1e6:.0f} MHz)" for m in dead
            )
            violations.append(
                ClaimViolation(
                    claim=(
                        "usable "
                        f"{claims.min_freq_hz / 1e6:.0f}-"
                        f"{claims.max_freq_hz / 1e6:.0f} MHz coverage"
                    ),
                    evidence=f"no reception from known signals: {labels}",
                )
            )
        return violations

    def usability_matrix(
        self, n_sectors: int = 8, max_excess_db: float = 15.0
    ) -> Dict[str, Dict[str, bool]]:
        """Per-sector, per-band usability: the renter's view.

        A (sector, band) cell is usable when the sector shows ADS-B
        reception (directional evidence of an open path) *and* the
        band's known signal was received with acceptable excess
        attenuation. Bands are the measured signal families grouped by
        frequency decade label.
        """
        if n_sectors <= 0 or 360 % n_sectors != 0:
            raise ValueError(
                f"n_sectors must divide 360: {n_sectors}"
            )
        width = 360 // n_sectors
        sector_labels = [
            f"{i * width:03d}-{(i + 1) * width:03d}"
            for i in range(n_sectors)
        ]
        bands = {}
        for m in self.profile.measurements:
            label = f"{m.freq_hz / 1e6:.0f} MHz"
            usable = (
                m.decoded
                and m.excess_attenuation_db is not None
                and m.excess_attenuation_db <= max_excess_db
            )
            bands[label] = usable
        matrix: Dict[str, Dict[str, bool]] = {}
        for i, sector_label in enumerate(sector_labels):
            center = (i + 0.5) * width
            sector_open = self.fov.is_open(center)
            matrix[sector_label] = {
                band: sector_open and usable
                for band, usable in bands.items()
            }
        return matrix

    def render_usability(self, n_sectors: int = 8) -> str:
        """Terminal rendition of :meth:`usability_matrix`."""
        matrix = self.usability_matrix(n_sectors)
        bands = list(next(iter(matrix.values())))
        width = max(len(b) for b in bands)
        lines = [
            "sector   " + " ".join(b.rjust(width) for b in bands)
        ]
        for sector, cells in matrix.items():
            row = " ".join(
                ("yes" if cells[b] else ".").rjust(width)
                for b in bands
            )
            lines.append(f"{sector}  {row}")
        return "\n".join(lines)

    def render_text(self) -> str:
        """Human-readable report."""
        lines = [
            f"Calibration report for {self.node_id}",
            "=" * 50,
            (
                f"ADS-B: {len(self.scan.received)}/"
                f"{len(self.scan.observations)} aircraft received, "
                f"max range {self.scan.max_received_range_km():.0f} km, "
                f"{self.scan.decoded_message_count} messages"
            ),
            (
                f"Field of view: {self.fov.open_fraction():.0%} open "
                f"({len(self.fov.open_sectors())} sector(s))"
            ),
            (
                f"Installation: {self.classification.installation} "
                f"(P[outdoor]="
                f"{self.classification.outdoor_probability:.2f})"
            ),
            "Band grades:",
        ]
        for g in sorted(self.band_grades, key=lambda b: b.freq_hz):
            excess = (
                f"{g.excess_attenuation_db:5.1f} dB excess"
                if g.excess_attenuation_db is not None
                else "  no decode"
            )
            lines.append(
                f"  {g.freq_hz / 1e6:7.1f} MHz {g.label:<10} "
                f"grade {g.grade}  {excess}"
            )
        lines.append(
            f"Overall quality score: {self.overall_score():.2f}"
        )
        return "\n".join(lines)
