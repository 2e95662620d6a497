"""The campaign JSON writer against its ``json.dumps`` oracle.

Called without keyword arguments or with ``indent`` alone,
``network_to_json`` and ``assessment_to_json`` write straight from the
objects. ``json.dumps`` of ``network_to_dict`` / ``assessment_to_dict``
with the same arguments is the reference, byte for byte. ``repro fleet
--json`` files persist the ``indent=2`` layout and the repository
benchmark encodes the default one, so two standard campaigns are also
pinned by digest in each. The same hand-built documents check that
every record type's ``from_dict(to_dict(x)) == x``.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adsb.icao import IcaoAddress
from repro.core import serialize
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
from repro.core.report import CalibrationReport, ClaimViolation
from repro.core.serialize import (
    assessment_to_dict,
    assessment_to_json,
    network_from_json,
    network_to_dict,
    network_to_json,
)
from repro.experiments.common import build_world
from repro.geo.coords import GeoPoint
from repro.interference.collisions import CollisionStats
from repro.runtime.campaign import FleetCampaign, fleet_jobs
from repro.runtime.jobs import WorldSpec
from repro.serve.synthetic import synthetic_fleet

#: sha256 of ``network_to_json`` for the two campaigns below, in the
#: default and the ``indent=2`` layout, computed with
#: ``json.dumps(network_to_dict(...), ...)`` before the writer existed.
GOLDEN_FRESH = {
    None: "242dce2eeb32d50108ba9fdead40defdecb8fbb9c7525bb8991073a94c760331",
    2: "273029e93e7b6f0f4031d06514e1947389d9078ce3654b41edc524c4fe5193ec",
}
GOLDEN_FAILURES_AND_METRICS = {
    None: "3ca0f67ec8745ed7953d360ede607c563e53bcb33baef1eba958383ff3299901",
    2: "9ab587fade96206d9709f30a9a88d0d0a7baf8be1616edf9bcdea0de31e504ba",
}

#: The layouts the writer produces: the default one, and ``indent=2``,
#: which ``repro fleet --json`` writes.
LAYOUTS = ({}, {"indent": 2})

#: A fresh world and seed, as a cold benchmark campaign draws them.
TRAFFIC_SEED = 2024


def assert_same_text(text: str, expected: str) -> None:
    """Byte equality, reported around the first difference.

    A plain ``==`` on two campaign documents makes pytest diff some
    hundred kilobytes of one-line JSON.
    """
    if text == expected:
        return
    i = next(
        (k for k, (a, b) in enumerate(zip(text, expected)) if a != b),
        min(len(text), len(expected)),
    )
    pytest.fail(
        f"differs at offset {i}: {text[i - 60:i + 60]!r} "
        f"!= {expected[i - 60:i + 60]!r}"
    )


def assert_matches_oracle(network: NetworkAssessments) -> None:
    for kwargs in LAYOUTS:
        assert_same_text(
            network_to_json(network, **kwargs),
            json.dumps(network_to_dict(network), **kwargs),
        )
        for assessment in network.values():
            assert_same_text(
                assessment_to_json(assessment, **kwargs),
                json.dumps(assessment_to_dict(assessment), **kwargs),
            )


def fresh_campaign(world) -> NetworkAssessments:
    """The standard 12-node campaign on a fresh world."""
    jobs = fleet_jobs(seed=11, world=WorldSpec(traffic_seed=TRAFFIC_SEED))
    result = FleetCampaign(jobs, world=world).run()
    return NetworkAssessments(result.assessments)


def campaign_with_failures(world) -> NetworkAssessments:
    """A campaign with one crashed node, recorded like ``repro fleet``.

    Metrics keep the campaign's counters that do not depend on timing
    or on what the process ran before (the path cache is global), plus
    one float.
    """
    jobs = fleet_jobs(
        seed=12,
        world=WorldSpec(traffic_seed=TRAFFIC_SEED),
        fail_node="window-1",
    )
    result = FleetCampaign(jobs, world=world).run()
    network = NetworkAssessments(result.assessments)
    for entry in result.failed():
        network.failures[entry.job_id] = AssessmentFailure(
            node_id=entry.job_id,
            error=entry.error,
            exception_type="JobFailed",
        )
    network.metrics = {
        key: result.metrics[key]
        for key in ("jobs_done", "jobs_failed", "cache_hits", "cache_misses")
    }
    network.metrics["mean_overall_score"] = sum(
        a.report.overall_score() for a in network.values()
    ) / len(network)
    return network


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def campaign_world():
    return build_world(traffic_seed=TRAFFIC_SEED)


class TestGoldenCampaigns:
    def test_fresh_campaign_digest(self, campaign_world):
        network = fresh_campaign(campaign_world)
        assert len(network) == 12
        assert_matches_oracle(network)
        for indent, expected in GOLDEN_FRESH.items():
            assert digest(network_to_json(network, indent=indent)) == expected

    def test_failures_and_metrics_digest(self, campaign_world):
        network = campaign_with_failures(campaign_world)
        assert set(network.failures) == {"window-1"}
        assert network.metrics["jobs_failed"] == 1
        assert_matches_oracle(network)
        for indent, expected in GOLDEN_FAILURES_AND_METRICS.items():
            text = network_to_json(network, indent=indent)
            assert digest(text) == expected
            back = network_from_json(text)
            assert_same_text(network_to_json(back, indent=indent), text)

    def test_keyword_arguments_keep_json_dumps(self, campaign_world):
        network = campaign_with_failures(campaign_world)
        for kwargs in (
            {"indent": None},
            {"indent": 0},
            {"indent": 4},
            {"indent": "\t"},
            {"sort_keys": True},
            {"indent": 2, "sort_keys": True},
            {"separators": (",", ":")},
        ):
            assert_same_text(
                network_to_json(network, **kwargs),
                json.dumps(network_to_dict(network), **kwargs),
            )


class TestSyntheticFleets:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_nodes=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        failure_fraction=st.sampled_from([0.0, 0.05, 1.0]),
    )
    def test_writer_equals_oracle(self, n_nodes, seed, failure_fraction):
        network, _ = synthetic_fleet(
            n_nodes, seed=seed, failure_fraction=failure_fraction
        )
        assert_matches_oracle(network)


# -- hand-built documents ---------------------------------------------------

def numbers(exact=False):
    """What can sit in a float field: any float (NaN, ±inf, ±0.0,
    integral values), an int, a bool, or an ``np.float64``.

    ``exact`` keeps the values a round trip can compare: no NaN, and
    no int a float cannot hold (readers of float lists apply
    ``float``).
    """
    bound = 2**53 if exact else 10**20
    return st.one_of(
        st.floats(allow_nan=not exact, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 100.0, 1e16, 5e-324]),
        st.integers(-bound, bound),
        st.booleans(),
        st.floats(allow_nan=not exact, allow_infinity=True).map(np.float64),
    )


NUMBERS = numbers()
TEXT = st.text(max_size=8)


@st.composite
def observations(draw, number=NUMBERS):
    received = draw(st.booleans())
    return AircraftObservation(
        icao=IcaoAddress(draw(st.integers(0, (1 << 24) - 1))),
        callsign=draw(st.none() | TEXT),
        bearing_deg=draw(number),
        ground_range_m=draw(number.filter(lambda x: not x < 0)),
        elevation_deg=draw(number),
        position=GeoPoint(
            draw(st.floats(-90.0, 90.0) | st.integers(-90, 90)),
            draw(st.floats(-1e3, 1e3) | st.integers(-1000, 1000)),
            draw(number),
        ),
        received=received,
        n_messages=draw(st.integers(1, 10**6) if received else st.just(0)),
        mean_rssi_dbfs=draw(st.none() | number),
    )


@st.composite
def assessments(draw, node_id, number=NUMBERS):
    optional_number = st.none() | number
    scan = DirectionalScan(
        node_id=node_id,
        duration_s=draw(number),
        radius_m=draw(number),
        observations=draw(st.lists(observations(number), max_size=4)),
        decoded_message_count=draw(st.integers(0, 10**6)),
        ghost_icaos=[
            IcaoAddress(v)
            for v in draw(st.lists(st.integers(0, (1 << 24) - 1), max_size=2))
        ],
        collision_stats=draw(
            st.none()
            | st.builds(
                CollisionStats,
                *[st.integers(0, 1000) for _ in range(4)],
            )
        ),
    )
    measurements = [
        BandMeasurement(
            source=draw(TEXT),
            label=draw(TEXT),
            freq_hz=draw(number),
            measured=draw(optional_number),
            expected=draw(number),
            excess_attenuation_db=draw(optional_number),
            decoded=draw(st.booleans()),
            interference_dbm=draw(optional_number),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    report = CalibrationReport(
        node_id=node_id,
        scan=scan,
        fov=FieldOfViewEstimate(
            bin_deg=90.0,
            open_flags=[True, False, True, True],
            max_range_km=[draw(number) for _ in range(4)],
        ),
        profile=FrequencyProfile(node_id=node_id, measurements=measurements),
        features=InstallationFeatures(*[draw(number) for _ in range(6)]),
        classification=Classification(
            installation=draw(TEXT),
            outdoor=draw(st.booleans()),
            outdoor_probability=draw(number),
        ),
    )
    trust = TrustAssessment(
        node_id=node_id,
        checks=[
            TrustCheck(
                draw(TEXT), draw(st.booleans()), draw(st.floats(0.0, 1.0)), ""
            )
        ],
    )
    abs_power = draw(
        st.none()
        | st.builds(
            AbsolutePowerCalibration,
            full_scale_dbm_estimate=optional_number,
            spread_db=number,
            anchor_label=st.none() | TEXT,
            anchor_bearing_deg=optional_number,
            n_signals=st.integers(0, 20),
            reliable=st.booleans(),
        )
    )
    return NodeAssessment(
        node_id=node_id,
        report=report,
        trust=trust,
        claim_violations=[ClaimViolation(draw(TEXT), draw(TEXT))],
        abs_power=abs_power,
    )


@st.composite
def networks(draw, number=NUMBERS):
    node_ids = draw(st.lists(TEXT, max_size=3, unique=True))
    network = NetworkAssessments(
        {node_id: draw(assessments(node_id, number)) for node_id in node_ids}
    )
    for node_id in draw(st.lists(TEXT, max_size=2, unique=True)):
        network.failures[node_id] = AssessmentFailure(
            node_id=node_id, error=draw(TEXT), exception_type="RuntimeError"
        )
    network.metrics = draw(st.dictionaries(TEXT, number, max_size=3))
    return network


def records_in(network):
    """``(record, value)`` for every record a network document holds."""
    yield serialize.NETWORK, network
    for failure in network.failures.values():
        yield serialize.FAILURE, failure
    for assessment in network.values():
        report, scan = assessment.report, assessment.report.scan
        yield serialize.ASSESSMENT, assessment
        yield serialize.REPORT, report
        yield serialize.SCAN, scan
        for observation in scan.observations:
            yield serialize.OBSERVATION, observation
            yield serialize.POSITION, observation.position
        if scan.collision_stats is not None:
            yield serialize.COLLISION_STATS, scan.collision_stats
        yield serialize.FOV, report.fov
        yield serialize.PROFILE, report.profile
        for measurement in report.profile.measurements:
            yield serialize.MEASUREMENT, measurement
        yield serialize.FEATURES, report.features
        yield serialize.CLASSIFICATION, report.classification
        for grade in report.band_grades:
            yield serialize.BAND_GRADE, grade
        yield serialize.TRUST, assessment.trust
        for check in assessment.trust.checks:
            yield serialize.TRUST_CHECK, check
        for violation in assessment.claim_violations:
            yield serialize.VIOLATION, violation
        if assessment.abs_power is not None:
            yield serialize.ABS_POWER, assessment.abs_power


class TestRoundTrip:
    """``from_dict(to_dict(x)) == x`` for every record that is read."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(networks(numbers(exact=True)))
    def test_every_record_round_trips(self, network):
        for record, value in records_in(network):
            to_dict, from_dict = record.converters
            assert from_dict(to_dict(value)) == value, record.name
            text = json.dumps(to_dict(value))
            assert from_dict(json.loads(text)) == value, record.name

    def test_records_in_reaches_every_read_record(self):
        network, _ = synthetic_fleet(2, seed=0, failure_fraction=0.5)
        (assessment,) = network.values()
        assessment.report.scan.collision_stats = CollisionStats(9, 3, 1, 1)
        assessment.claim_violations = [ClaimViolation("claim", "evidence")]
        assessment.abs_power = AbsolutePowerCalibration(
            -10.0, 1.5, "FM 99.1", 120.0, 3, True
        )
        reached = {record.name for record, _ in records_in(network)}
        records = [
            value
            for value in vars(serialize).values()
            if isinstance(value, serialize.Record)
        ]
        read = {r.name for r in records if len(r.converters) == 2}
        assert reached == read
        assert {r.name for r in records} - read == {"scores"}


class TestHandBuiltDocuments:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(networks())
    def test_writer_equals_oracle(self, network):
        assert_matches_oracle(network)

    @staticmethod
    def _network(*values):
        """One node whose observations carry ``values``, in order."""
        position = GeoPoint(46.0, 7.0, 0.0)
        observations = [
            AircraftObservation(
                icao=IcaoAddress(0xABC123),
                callsign="SWR1ü",
                bearing_deg=value,
                ground_range_m=1000.0,
                elevation_deg=value,
                position=position,
                received=False,
                mean_rssi_dbfs=value if k % 2 else None,
            )
            for k, value in enumerate(values)
        ]
        network, _ = synthetic_fleet(1, seed=0)
        (assessment,) = network.values()
        assessment.report.scan.observations = observations
        return network

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, -0.0, 0.0, -0.0),
            (-0.0, 0.0),
            (math.nan, math.inf, -math.inf, math.nan, 1.5),
            (100.0, 100, 100.0, True, 1.0, 1, False, 0.0),
            (100, 100.0, 1, 1.0, 0, 0.0),
            (np.float64(2.5), 2.5, np.float64("nan"), np.float64(-0.0)),
        ],
    )
    def test_edge_values(self, values):
        network = self._network(*values)
        assert_matches_oracle(network)

    def test_zeros_keep_their_sign(self):
        text = network_to_json(self._network(0.0, -0.0, 0.0, -0.0))
        assert '"bearing_deg": -0.0' in text
        assert '"bearing_deg": 0.0' in text

    def test_ints_and_bools_keep_their_text(self):
        text = network_to_json(self._network(100.0, 100, True, 1.0))
        for fragment in ("100.0", "100,", "true", "1.0"):
            assert f'"bearing_deg": {fragment}' in text

    def test_non_finite_values_print_as_json_dumps_does(self):
        text = network_to_json(self._network(math.nan, math.inf, -math.inf))
        for fragment in ("NaN", "Infinity", "-Infinity"):
            assert f'"bearing_deg": {fragment},' in text

    def test_empty_and_failures_only_networks(self):
        assert_matches_oracle(NetworkAssessments())
        network = NetworkAssessments()
        network.failures["sn-1"] = AssessmentFailure(
            node_id="sn-1", error="crashed", exception_type="RuntimeError"
        )
        network.metrics = {"jobs_failed": 1}
        assert_matches_oracle(network)
        assert network_to_json(network) == (
            '{"assessments": {}, "failures": {"sn-1": {"node_id": "sn-1", '
            '"error": "crashed", "exception_type": "RuntimeError"}}, '
            '"metrics": {"jobs_failed": 1}}'
        )

    def test_empty_scan(self):
        network = self._network()
        (assessment,) = network.values()
        assert assessment.report.scan.observations == []
        assert_matches_oracle(network)
        for kwargs in LAYOUTS:
            text = network_to_json(network, **kwargs)
            assert '"observations": []' in text
