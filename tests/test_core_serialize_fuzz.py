"""The ``*_from_dict`` readers on malformed input.

Stored state (result-cache entries, ``repro fleet --json`` files, replayed
scans) is read back through the readers, and its callers treat a member
of ``SHAPE_ERRORS`` as "not a record". Any other exception would escape
them as a crash, so every reader, fed any JSON value, a dict with its
keys but arbitrary values, or a real assessment with one leaf replaced
or deleted, must either return or raise a member of ``SHAPE_ERRORS``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adsb.icao import IcaoAddress
from repro.core import serialize
from repro.core.serialize import (
    SHAPE_ERRORS,
    assessment_from_dict,
    assessment_to_dict,
)
from repro.interference.collisions import CollisionStats

#: A JSON scalar, non-finite floats and integers too large for a float
#: included.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=6)
)
#: Any value ``json.loads`` can return.
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

#: Every record type that is read back (all but the write-only scores).
READERS = [
    record
    for record in vars(serialize).values()
    if isinstance(record, serialize.Record) and len(record.converters) == 2
]


def fuzz_settings(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def read_or_shape_error(record, data):
    """Run ``record``'s reader; a shape error is an accepted outcome."""
    _, from_dict = record.converters
    try:
        from_dict(data)
    except SHAPE_ERRORS:
        pass


@pytest.fixture(scope="module")
def stored_assessment(world):
    """A real node assessment, as the result cache stores it.

    Its scan carries collision stats and a ghost, so the mutations
    reach the count and ICAO codecs.
    """
    from repro.core.network import CalibrationService
    from repro.node.sensor import SensorNode

    service = CalibrationService(
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        cell_towers=world.testbed.cell_towers,
        tv_towers=world.testbed.tv_towers,
        fm_towers=world.testbed.fm_towers,
    )
    assessment = service.evaluate_node(
        SensorNode("fuzz-node", world.testbed.site("rooftop")), seed=5
    )
    scan = assessment.report.scan
    scan.collision_stats = CollisionStats(120, 30, 8, 11)
    scan.ghost_icaos = [IcaoAddress(0xF00D)]
    data = assessment_to_dict(assessment)
    assert assessment_from_dict(data) == assessment
    assert data["report"]["scan"]["observations"]
    assert data["report"]["profile"]["measurements"]
    return data


def leaf_paths(value, path=()):
    """Paths to every leaf: a scalar, an empty list or an empty dict."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            yield from leaf_paths(child, path + (key,))
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            yield from leaf_paths(child, path + (i,))
    else:
        yield path


class TestAnyJson:
    @pytest.mark.parametrize("record", READERS, ids=lambda r: r.name)
    @fuzz_settings(60)
    @given(data=JSON)
    def test_any_value(self, record, data):
        read_or_shape_error(record, data)

    @pytest.mark.parametrize("record", READERS, ids=lambda r: r.name)
    @fuzz_settings(60)
    @given(data=st.data())
    def test_every_key_any_value(self, record, data):
        value = SCALARS | st.lists(SCALARS, max_size=3)
        shaped = data.draw(
            st.fixed_dictionaries({f.key: value for f in record.fields})
        )
        read_or_shape_error(record, shaped)


class TestMutatedAssessment:
    @fuzz_settings(300)
    @given(data=st.data())
    def test_one_leaf_replaced_or_deleted(self, stored_assessment, data):
        document = json.loads(json.dumps(stored_assessment))
        path = data.draw(st.sampled_from(list(leaf_paths(document))))
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
        read_or_shape_error(serialize.ASSESSMENT, document)

    @pytest.mark.parametrize(
        "count", [float("inf"), float("-inf"), float("nan"), 1.5, "7", True]
    )
    def test_corrupt_collision_count_is_a_value_error(
        self, stored_assessment, count
    ):
        document = json.loads(json.dumps(stored_assessment))
        document["report"]["scan"]["collision_stats"]["n_events"] = count
        with pytest.raises(ValueError, match="not a count"):
            assessment_from_dict(document)

    def test_integral_float_count_reads_as_int(self, stored_assessment):
        document = json.loads(json.dumps(stored_assessment))
        document["report"]["scan"]["collision_stats"]["n_events"] = 120.0
        stats = assessment_from_dict(document).report.scan.collision_stats
        assert stats == CollisionStats(120, 30, 8, 11)
        assert type(stats.n_events) is int
