"""JSON-friendly serialization of calibration results.

A crowd-sourced network ships scans and reports between nodes and the
cloud; these converters produce plain dict/JSON structures (and read
them back) so results can be stored, diffed, and audited. Round-trip
fidelity is tested for every record type.

:func:`network_to_json` and :func:`assessment_to_json` return the text
of ``json.dumps`` of the ``*_to_dict`` records. ``repro fleet --json``
writes campaign files with ``indent=2``, a persisted format; the
default layout is what the repository benchmark encodes per campaign.
Readers parse the JSON and do not depend on the layout; the bytes are
pinned so that files written before and after a change stay diffable.
For those two layouts the functions write the text directly (see the
writer at the end of this module);
``tests/test_core_serialize_writer.py`` compares them with
``json.dumps`` and pins two standard campaigns by sha256 in each.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.adsb.icao import IcaoAddress
from repro.core.abs_power import AbsolutePowerCalibration
from repro.core.classify import Classification, InstallationFeatures
from repro.core.fov import FieldOfViewEstimate
from repro.core.frequency import BandMeasurement, FrequencyProfile
from repro.core.network import (
    AssessmentFailure,
    NetworkAssessments,
    NodeAssessment,
    TrustAssessment,
    TrustCheck,
)
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.core.report import BandGrade, CalibrationReport, ClaimViolation
from repro.geo.coords import GeoPoint
from repro.interference.collisions import CollisionStats

#: What the ``*_from_dict`` readers raise on valid JSON of the wrong
#: shape: a list or number where an object belongs, a missing key, a
#: value of the wrong type. Readers of stored state catch these.
SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def observation_to_dict(obs: AircraftObservation) -> Dict[str, Any]:
    """Serialize one aircraft observation."""
    return {
        "icao": str(obs.icao),
        "callsign": obs.callsign,
        "bearing_deg": obs.bearing_deg,
        "ground_range_m": obs.ground_range_m,
        "elevation_deg": obs.elevation_deg,
        "position": {
            "lat_deg": obs.position.lat_deg,
            "lon_deg": obs.position.lon_deg,
            "alt_m": obs.position.alt_m,
        },
        "received": obs.received,
        "n_messages": obs.n_messages,
        "mean_rssi_dbfs": obs.mean_rssi_dbfs,
    }


def observation_from_dict(data: Dict[str, Any]) -> AircraftObservation:
    """Inverse of :func:`observation_to_dict`."""
    pos = data["position"]
    return AircraftObservation(
        icao=IcaoAddress.from_hex(data["icao"]),
        callsign=data["callsign"],
        bearing_deg=data["bearing_deg"],
        ground_range_m=data["ground_range_m"],
        elevation_deg=data["elevation_deg"],
        position=GeoPoint(
            pos["lat_deg"], pos["lon_deg"], pos["alt_m"]
        ),
        received=data["received"],
        n_messages=data["n_messages"],
        mean_rssi_dbfs=data["mean_rssi_dbfs"],
    )


def scan_to_dict(scan: DirectionalScan) -> Dict[str, Any]:
    """Serialize a directional scan."""
    return {
        "node_id": scan.node_id,
        "duration_s": scan.duration_s,
        "radius_m": scan.radius_m,
        "observations": [
            observation_to_dict(o) for o in scan.observations
        ],
        "decoded_message_count": scan.decoded_message_count,
        "ghost_icaos": [str(g) for g in scan.ghost_icaos],
        "collision_stats": (
            scan.collision_stats.to_dict()
            if scan.collision_stats is not None
            else None
        ),
    }


def scan_from_dict(data: Dict[str, Any]) -> DirectionalScan:
    """Inverse of :func:`scan_to_dict`.

    ``collision_stats`` is optional so scans written before the
    interference layer still parse.
    """
    stats = data.get("collision_stats")
    return DirectionalScan(
        node_id=data["node_id"],
        duration_s=data["duration_s"],
        radius_m=data["radius_m"],
        observations=[
            observation_from_dict(o) for o in data["observations"]
        ],
        decoded_message_count=data["decoded_message_count"],
        ghost_icaos=[
            IcaoAddress.from_hex(g) for g in data["ghost_icaos"]
        ],
        collision_stats=(
            CollisionStats.from_dict(stats)
            if stats is not None
            else None
        ),
    )


def fov_to_dict(fov: FieldOfViewEstimate) -> Dict[str, Any]:
    """Serialize a field-of-view estimate."""
    return {
        "bin_deg": fov.bin_deg,
        "open_flags": list(fov.open_flags),
        "max_range_km": list(fov.max_range_km),
    }


def fov_from_dict(data: Dict[str, Any]) -> FieldOfViewEstimate:
    """Inverse of :func:`fov_to_dict`."""
    return FieldOfViewEstimate(
        bin_deg=data["bin_deg"],
        open_flags=[bool(f) for f in data["open_flags"]],
        max_range_km=[float(r) for r in data["max_range_km"]],
    )


def measurement_to_dict(m: BandMeasurement) -> Dict[str, Any]:
    """Serialize one band measurement."""
    return {
        "source": m.source,
        "label": m.label,
        "freq_hz": m.freq_hz,
        "measured": m.measured,
        "expected": m.expected,
        "excess_attenuation_db": m.excess_attenuation_db,
        "decoded": m.decoded,
        "interference_dbm": m.interference_dbm,
    }


def measurement_from_dict(data: Dict[str, Any]) -> BandMeasurement:
    """Inverse of :func:`measurement_to_dict`.

    ``interference_dbm`` is optional so profiles written before the
    interference layer still parse.
    """
    return BandMeasurement(
        interference_dbm=data.get("interference_dbm"),
        **{
            k: v
            for k, v in data.items()
            if k != "interference_dbm"
        },
    )


def profile_to_dict(profile: FrequencyProfile) -> Dict[str, Any]:
    """Serialize a frequency profile."""
    return {
        "node_id": profile.node_id,
        "measurements": [
            measurement_to_dict(m) for m in profile.measurements
        ],
    }


def profile_from_dict(data: Dict[str, Any]) -> FrequencyProfile:
    """Inverse of :func:`profile_to_dict`."""
    return FrequencyProfile(
        node_id=data["node_id"],
        measurements=[
            measurement_from_dict(m) for m in data["measurements"]
        ],
    )


def report_to_dict(report: CalibrationReport) -> Dict[str, Any]:
    """Serialize a full calibration report."""
    return {
        "node_id": report.node_id,
        "scan": scan_to_dict(report.scan),
        "fov": fov_to_dict(report.fov),
        "profile": profile_to_dict(report.profile),
        "features": features_to_dict(report.features),
        "classification": classification_to_dict(report.classification),
        "band_grades": [band_grade_to_dict(g) for g in report.band_grades],
        "scores": scores_to_dict(report),
    }


def features_to_dict(features: InstallationFeatures) -> Dict[str, Any]:
    """Serialize the classifier features of a report."""
    return {
        "fov_open_fraction": features.fov_open_fraction,
        "max_received_range_km": features.max_received_range_km,
        "reach_km": features.reach_km,
        "high_band_decode_fraction": features.high_band_decode_fraction,
        "high_band_excess_db": features.high_band_excess_db,
        "low_band_excess_db": features.low_band_excess_db,
    }


def classification_to_dict(
    classification: Classification,
) -> Dict[str, Any]:
    """Serialize an installation verdict."""
    return {
        "installation": classification.installation,
        "outdoor": classification.outdoor,
        "outdoor_probability": classification.outdoor_probability,
    }


def band_grade_to_dict(grade: BandGrade) -> Dict[str, Any]:
    """Serialize one band grade."""
    return {
        "label": grade.label,
        "freq_hz": grade.freq_hz,
        "grade": grade.grade,
        "excess_attenuation_db": grade.excess_attenuation_db,
    }


def scores_to_dict(report: CalibrationReport) -> Dict[str, Any]:
    """A report's quality scores (derived, so only ever written)."""
    directional, frequency, overall = report.scores()
    return {
        "directional": directional,
        "frequency": frequency,
        "overall": overall,
    }


def report_from_dict(data: Dict[str, Any]) -> CalibrationReport:
    """Inverse of :func:`report_to_dict` (scores are recomputed)."""
    return CalibrationReport(
        node_id=data["node_id"],
        scan=scan_from_dict(data["scan"]),
        fov=fov_from_dict(data["fov"]),
        profile=profile_from_dict(data["profile"]),
        features=InstallationFeatures(**data["features"]),
        classification=Classification(**data["classification"]),
        band_grades=[BandGrade(**g) for g in data["band_grades"]],
    )


def report_to_json(report: CalibrationReport, **json_kwargs) -> str:
    """Serialize a report straight to a JSON string."""
    return json.dumps(report_to_dict(report), **json_kwargs)


def report_from_json(text: str) -> CalibrationReport:
    """Parse a report from its JSON string."""
    return report_from_dict(json.loads(text))


def trust_check_to_dict(check: TrustCheck) -> Dict[str, Any]:
    """Serialize one trust check."""
    return {
        "name": check.name,
        "passed": check.passed,
        "score": check.score,
        "detail": check.detail,
    }


def trust_check_from_dict(data: Dict[str, Any]) -> TrustCheck:
    """Inverse of :func:`trust_check_to_dict`."""
    return TrustCheck(**data)


def trust_to_dict(trust: TrustAssessment) -> Dict[str, Any]:
    """Serialize a trust assessment (score is recomputed on read)."""
    return {
        "node_id": trust.node_id,
        "checks": [trust_check_to_dict(c) for c in trust.checks],
    }


def trust_from_dict(data: Dict[str, Any]) -> TrustAssessment:
    """Inverse of :func:`trust_to_dict`."""
    return TrustAssessment(
        node_id=data["node_id"],
        checks=[trust_check_from_dict(c) for c in data["checks"]],
    )


def violation_to_dict(violation: ClaimViolation) -> Dict[str, Any]:
    """Serialize one claim violation."""
    return {"claim": violation.claim, "evidence": violation.evidence}


def violation_from_dict(data: Dict[str, Any]) -> ClaimViolation:
    """Inverse of :func:`violation_to_dict`."""
    return ClaimViolation(**data)


def abs_power_to_dict(cal: AbsolutePowerCalibration) -> Dict[str, Any]:
    """Serialize an absolute-power calibration."""
    return {
        "full_scale_dbm_estimate": cal.full_scale_dbm_estimate,
        "spread_db": cal.spread_db,
        "anchor_label": cal.anchor_label,
        "anchor_bearing_deg": cal.anchor_bearing_deg,
        "n_signals": cal.n_signals,
        "reliable": cal.reliable,
    }


def abs_power_from_dict(data: Dict[str, Any]) -> AbsolutePowerCalibration:
    """Inverse of :func:`abs_power_to_dict`."""
    return AbsolutePowerCalibration(**data)


def assessment_to_dict(assessment: NodeAssessment) -> Dict[str, Any]:
    """Serialize a full node assessment.

    This is the record the fleet runtime's result cache persists, and
    a stopped campaign resumes from: everything the service concluded about one
    node, round-trippable through JSON.
    """
    return {
        "node_id": assessment.node_id,
        "report": report_to_dict(assessment.report),
        "trust": trust_to_dict(assessment.trust),
        "claim_violations": [
            violation_to_dict(v) for v in assessment.claim_violations
        ],
        "abs_power": (
            abs_power_to_dict(assessment.abs_power)
            if assessment.abs_power is not None
            else None
        ),
    }


def assessment_from_dict(data: Dict[str, Any]) -> NodeAssessment:
    """Inverse of :func:`assessment_to_dict`."""
    return NodeAssessment(
        node_id=data["node_id"],
        report=report_from_dict(data["report"]),
        trust=trust_from_dict(data["trust"]),
        claim_violations=[
            violation_from_dict(v) for v in data["claim_violations"]
        ],
        abs_power=(
            abs_power_from_dict(data["abs_power"])
            if data["abs_power"] is not None
            else None
        ),
    )


def assessment_to_json(
    assessment: NodeAssessment, **json_kwargs
) -> str:
    """Serialize a node assessment straight to a JSON string.

    Always the text of
    ``json.dumps(assessment_to_dict(assessment), **json_kwargs)``. With
    no keyword arguments or ``indent`` alone, :class:`_DocumentWriter`
    writes it without building the dict.
    """
    writer = _writer(json_kwargs)
    if writer is None:
        return json.dumps(assessment_to_dict(assessment), **json_kwargs)
    return writer.assessment(assessment)


def assessment_from_json(text: str) -> NodeAssessment:
    """Parse a node assessment from its JSON string."""
    return assessment_from_dict(json.loads(text))


def failure_to_dict(failure: AssessmentFailure) -> Dict[str, Any]:
    """Serialize one assessment failure."""
    return {
        "node_id": failure.node_id,
        "error": failure.error,
        "exception_type": failure.exception_type,
    }


def failure_from_dict(data: Dict[str, Any]) -> AssessmentFailure:
    """Inverse of :func:`failure_to_dict`."""
    return AssessmentFailure(**data)


def network_to_dict(
    network: NetworkAssessments,
) -> Dict[str, Any]:
    """Serialize a whole network evaluation, failures included.

    This is the record a finished fleet campaign hands to the serve
    store: every successful node assessment plus every node that
    crashed instead of completing.
    """
    out: Dict[str, Any] = {
        "assessments": {
            node_id: assessment_to_dict(assessment)
            for node_id, assessment in sorted(network.items())
        },
        "failures": {
            node_id: failure_to_dict(failure)
            for node_id, failure in sorted(network.failures.items())
        },
    }
    if network.metrics:
        # Campaign counters (path-cache effectiveness, failed jobs,
        # job latencies) ride along so `repro serve --source file` can
        # surface them; plain batch evaluations omit the key.
        out["metrics"] = dict(network.metrics)
    return out


def network_from_dict(data: Dict[str, Any]) -> NetworkAssessments:
    """Inverse of :func:`network_to_dict`."""
    out = NetworkAssessments(
        {
            node_id: assessment_from_dict(assessment)
            for node_id, assessment in data["assessments"].items()
        }
    )
    out.failures = {
        node_id: failure_from_dict(failure)
        for node_id, failure in data.get("failures", {}).items()
    }
    out.metrics = dict(data.get("metrics", {}))
    return out


def network_to_json(
    network: NetworkAssessments, **json_kwargs: Any
) -> str:
    """Serialize a network evaluation straight to a JSON string.

    Always the text of
    ``json.dumps(network_to_dict(network), **json_kwargs)``. With no
    keyword arguments or ``indent`` alone (``repro fleet --json``
    writes ``indent=2``), :class:`_DocumentWriter` writes it without
    building the dict.
    """
    writer = _writer(json_kwargs)
    if writer is None:
        return json.dumps(network_to_dict(network), **json_kwargs)
    return writer.network(network)


def network_from_json(text: str) -> NetworkAssessments:
    """Parse a network evaluation from its JSON string."""
    return network_from_dict(json.loads(text))


# -- the campaign writer ---------------------------------------------------
#
# Emits the bytes of ``json.dumps`` of the ``*_to_dict`` records, in the
# default layout or an indented one, straight from the objects along the
# network -> assessment -> report -> scan -> observation chain, and
# through band measurements and grades; the other leaf records still go
# through ``json.dumps`` of their ``*_to_dict``. A campaign repeats the
# same aircraft positions once per node (§3.1 joins every node against
# one ground-truth snapshot), co-sited nodes repeat arrival geometry and
# every node repeats the band frequencies, so the writer formats each
# distinct float once per document instead of once per leaf.

_str_text = json.encoder.encode_basestring_ascii


def _scalar_text(value: Any) -> str:
    """``json.dumps(value)`` of a leaf; common types skip the encoder."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value)


class _FloatTexts(Dict[float, str]):
    """Exact-``float`` value -> its JSON text, formatted on first use.

    Only ever indexed with exact floats. Zeros are never stored
    (``0.0 == -0.0``, but they print differently), nor are non-finite
    values (they print as ``NaN`` and ``Infinity``).
    """

    def __missing__(self, value: float) -> str:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text


def _writer(json_kwargs: Dict[str, Any]) -> Optional["_DocumentWriter"]:
    """The writer for these ``json.dumps`` arguments, if it has one.

    It covers no arguments and ``indent`` alone (as ``json.dumps``
    does, an int indents by that many spaces and ``None`` means the
    default layout); anything else is left to ``json.dumps``.
    """
    if json_kwargs.keys() - {"indent"}:
        return None
    indent = json_kwargs.get("indent")
    if indent is not None and not isinstance(indent, str):
        indent = " " * indent
    return _DocumentWriter(indent)


class _DocumentWriter:
    """Writes one document in ``json.dumps`` layout.

    ``indent`` is ``None`` for the default layout, or the text of one
    indent level, as ``json.dumps(..., indent=...)`` uses it. Each
    method takes the nesting depth of the record it writes, which only
    an indented layout needs. The float memo lives as long as the
    writer, i.e. one document; every value that is not an exact float
    goes through :func:`_scalar_text`.
    """

    def __init__(self, indent: Optional[str] = None) -> None:
        self._floats = _FloatTexts()
        self._indent = indent

    def number(self, value: Any) -> str:
        if type(value) is float:
            return self._floats[value]
        return _scalar_text(value)

    def braces(self, depth: int) -> Tuple[str, str, str]:
        """Opening brace, member separator and closing brace at ``depth``."""
        if self._indent is None:
            return "{", ", ", "}"
        inner = "\n" + self._indent * (depth + 1)
        return "{" + inner, "," + inner, "\n" + self._indent * depth + "}"

    def members(
        self, depth: int, opener: str, closer: str, items: List[str]
    ) -> str:
        """A list or object at ``depth`` from its item texts."""
        if not items:
            return opener + closer
        if self._indent is None:
            return f"{opener}{', '.join(items)}{closer}"
        inner = "\n" + self._indent * (depth + 1)
        return (
            f"{opener}{inner}{(',' + inner).join(items)}"
            f"\n{self._indent * depth}{closer}"
        )

    def dumps(self, value: Any, depth: int) -> str:
        """``json.dumps`` of a leaf record at ``depth``.

        Every newline in indented ``json.dumps`` output starts a line
        (strings escape theirs), so shifting each one indents the
        record to ``depth``.
        """
        if self._indent is None:
            return json.dumps(value)
        return json.dumps(value, indent=self._indent).replace(
            "\n", "\n" + self._indent * depth
        )

    def network(self, network: NetworkAssessments) -> str:
        o, s, c = self.braces(0)
        assessments = self.members(
            1,
            "{",
            "}",
            [
                f"{_str_text(node_id)}: {self.assessment(assessment, 2)}"
                for node_id, assessment in sorted(network.items())
            ],
        )
        failures = self.dumps(
            {
                node_id: failure_to_dict(failure)
                for node_id, failure in sorted(network.failures.items())
            },
            1,
        )
        metrics = (
            f'{s}"metrics": {self.dumps(dict(network.metrics), 1)}'
            if network.metrics
            else ""
        )
        return (
            f'{o}"assessments": {assessments}{s}'
            f'"failures": {failures}{metrics}{c}'
        )

    def assessment(self, assessment: NodeAssessment, depth: int = 0) -> str:
        o, s, c = self.braces(depth)
        inner = depth + 1
        violations = [
            violation_to_dict(v) for v in assessment.claim_violations
        ]
        abs_power = (
            abs_power_to_dict(assessment.abs_power)
            if assessment.abs_power is not None
            else None
        )
        trust = trust_to_dict(assessment.trust)
        return (
            f'{o}"node_id": {_scalar_text(assessment.node_id)}{s}'
            f'"report": {self.report(assessment.report, inner)}{s}'
            f'"trust": {self.dumps(trust, inner)}{s}'
            f'"claim_violations": {self.dumps(violations, inner)}{s}'
            f'"abs_power": {self.dumps(abs_power, inner)}{c}'
        )

    def report(self, report: CalibrationReport, depth: int) -> str:
        number = self.number
        o, s, c = self.braces(depth)
        inner = depth + 1
        po, ps, pc = self.braces(inner)
        mo, ms, mc = self.braces(depth + 3)
        measurements = self.members(
            depth + 2,
            "[",
            "]",
            [
                f'{mo}"source": {_scalar_text(m.source)}{ms}'
                f'"label": {_scalar_text(m.label)}{ms}'
                f'"freq_hz": {number(m.freq_hz)}{ms}'
                f'"measured": {number(m.measured)}{ms}'
                f'"expected": {number(m.expected)}{ms}'
                f'"excess_attenuation_db": '
                f"{number(m.excess_attenuation_db)}{ms}"
                f'"decoded": {_scalar_text(m.decoded)}{ms}'
                f'"interference_dbm": {number(m.interference_dbm)}{mc}'
                for m in report.profile.measurements
            ],
        )
        go, gs, gc = self.braces(depth + 2)
        band_grades = self.members(
            inner,
            "[",
            "]",
            [
                f'{go}"label": {_scalar_text(g.label)}{gs}'
                f'"freq_hz": {number(g.freq_hz)}{gs}'
                f'"grade": {_scalar_text(g.grade)}{gs}'
                f'"excess_attenuation_db": '
                f"{number(g.excess_attenuation_db)}{gc}"
                for g in report.band_grades
            ],
        )
        fov = self.dumps(fov_to_dict(report.fov), inner)
        features = self.dumps(features_to_dict(report.features), inner)
        classification = self.dumps(
            classification_to_dict(report.classification), inner
        )
        scores = self.dumps(scores_to_dict(report), inner)
        return (
            f'{o}"node_id": {_scalar_text(report.node_id)}{s}'
            f'"scan": {self.scan(report.scan, inner)}{s}'
            f'"fov": {fov}{s}'
            f'"profile": {po}"node_id": '
            f"{_scalar_text(report.profile.node_id)}{ps}"
            f'"measurements": {measurements}{pc}{s}'
            f'"features": {features}{s}'
            f'"classification": {classification}{s}'
            f'"band_grades": {band_grades}{s}'
            f'"scores": {scores}{c}'
        )

    def scan(self, scan: DirectionalScan, depth: int) -> str:
        number = self.number
        o, s, c = self.braces(depth)
        inner = depth + 1
        ao, as_, ac = self.braces(depth + 2)
        po, ps, pc = self.braces(depth + 3)
        observations = self.members(
            inner,
            "[",
            "]",
            [
                f'{ao}"icao": {_str_text(str(x.icao))}{as_}'
                f'"callsign": {_scalar_text(x.callsign)}{as_}'
                f'"bearing_deg": {number(x.bearing_deg)}{as_}'
                f'"ground_range_m": {number(x.ground_range_m)}{as_}'
                f'"elevation_deg": {number(x.elevation_deg)}{as_}'
                f'"position": {po}'
                f'"lat_deg": {number(x.position.lat_deg)}{ps}'
                f'"lon_deg": {number(x.position.lon_deg)}{ps}'
                f'"alt_m": {number(x.position.alt_m)}{pc}{as_}'
                f'"received": {_scalar_text(x.received)}{as_}'
                f'"n_messages": {_scalar_text(x.n_messages)}{as_}'
                f'"mean_rssi_dbfs": {number(x.mean_rssi_dbfs)}{ac}'
                for x in scan.observations
            ],
        )
        ghosts = self.dumps([str(g) for g in scan.ghost_icaos], inner)
        collisions = self.dumps(
            scan.collision_stats.to_dict()
            if scan.collision_stats is not None
            else None,
            inner,
        )
        return (
            f'{o}"node_id": {_scalar_text(scan.node_id)}{s}'
            f'"duration_s": {number(scan.duration_s)}{s}'
            f'"radius_m": {number(scan.radius_m)}{s}'
            f'"observations": {observations}{s}'
            f'"decoded_message_count": '
            f"{_scalar_text(scan.decoded_message_count)}{s}"
            f'"ghost_icaos": {ghosts}{s}'
            f'"collision_stats": {collisions}{c}'
        )
