"""JSON-friendly serialization of calibration results.

A crowd-sourced network ships scans and reports between nodes and the
cloud; these converters produce plain dict/JSON structures (and read
them back) so results can be stored, diffed, and audited. Round-trip
fidelity is tested for every record type.
"""

from __future__ import annotations

import json
from typing import Any, Dict

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
    features = report.features
    classification = report.classification
    directional, frequency, overall = report.scores()
    return {
        "node_id": report.node_id,
        "scan": scan_to_dict(report.scan),
        "fov": fov_to_dict(report.fov),
        "profile": profile_to_dict(report.profile),
        "features": {
            "fov_open_fraction": features.fov_open_fraction,
            "max_received_range_km": features.max_received_range_km,
            "reach_km": features.reach_km,
            "high_band_decode_fraction": (
                features.high_band_decode_fraction
            ),
            "high_band_excess_db": features.high_band_excess_db,
            "low_band_excess_db": features.low_band_excess_db,
        },
        "classification": {
            "installation": classification.installation,
            "outdoor": classification.outdoor,
            "outdoor_probability": classification.outdoor_probability,
        },
        "band_grades": [
            {
                "label": g.label,
                "freq_hz": g.freq_hz,
                "grade": g.grade,
                "excess_attenuation_db": g.excess_attenuation_db,
            }
            for g in report.band_grades
        ],
        "scores": {
            "directional": directional,
            "frequency": frequency,
            "overall": overall,
        },
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

    This is the record the fleet runtime's result cache and campaign
    checkpoints persist: everything the service concluded about one
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
    """Serialize a node assessment straight to a JSON string."""
    return json.dumps(assessment_to_dict(assessment), **json_kwargs)


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
        # Campaign counters (path-cache effectiveness, retries, job
        # latencies) ride along so `repro serve --source file` can
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
    """Serialize a network evaluation straight to a JSON string."""
    return json.dumps(network_to_dict(network), **json_kwargs)


def network_from_json(text: str) -> NetworkAssessments:
    """Parse a network evaluation from its JSON string."""
    return network_from_dict(json.loads(text))
