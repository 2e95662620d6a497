"""Content keys: stable hashing of the pipeline's static inputs."""

import collections
import dataclasses
import enum
import hashlib
import math
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.batch.links import BatchPower
from repro.engines import (
    UncacheableValue,
    capture_rng_state,
    content_key,
    restore_rng_state,
    rng_state_token,
)
from repro.environment.scenarios import make_window_site
from repro.fm.tower import FmTower
from repro.geo.coords import GeoPoint
from repro.runtime.jobs import CalibrationJob, NodeSpec
from repro.tv.tower import TvTower


def test_equal_content_equal_key():
    a = content_key("x", 1, 2.5, (3, 4), GeoPoint(47.0, 8.0, 400.0))
    b = content_key("x", 1, 2.5, (3, 4), GeoPoint(47.0, 8.0, 400.0))
    assert a == b
    assert len(a) == 32  # blake2b-16 hex


def test_type_tags_prevent_cross_type_collisions():
    keys = {
        content_key(1),
        content_key(1.0),
        content_key("1"),
        content_key(True),
        content_key(b"1"),
        content_key((1,)),
        content_key(np.int64(1)),
    }
    assert len(keys) == 7


def test_none_and_bools_distinct():
    assert len({content_key(None), content_key(False), content_key(0)}) == 3


def test_ndarray_sensitivity():
    base = np.arange(6, dtype=np.float64)
    assert content_key(base) == content_key(base.copy())
    assert content_key(base) != content_key(base.astype(np.float32))
    assert content_key(base) != content_key(base.reshape(2, 3))
    changed = base.copy()
    changed[3] += 1e-12
    assert content_key(base) != content_key(changed)


def test_non_contiguous_array_hashes_by_content():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    view = arr[:, ::2]
    assert content_key(view) == content_key(view.copy())


def test_dict_and_set_order_invariance():
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert content_key({3, 1, 2}) == content_key({1, 2, 3})
    assert content_key({"a": 1}) != content_key({"a": 2})


def test_dataclass_field_changes_change_key():
    p = GeoPoint(47.0, 8.0, 400.0)
    assert content_key(p) != content_key(GeoPoint(47.0, 8.0, 401.0))
    # Distinct dataclass types never collide even with equal fields.

    @dataclasses.dataclass(frozen=True)
    class Impostor:
        lat_deg: float
        lon_deg: float
        alt_m: float

    assert content_key(p) != content_key(Impostor(47.0, 8.0, 400.0))


def test_callables_are_uncacheable():
    with pytest.raises(UncacheableValue):
        content_key(lambda: None)
    with pytest.raises(UncacheableValue):
        content_key(("nested", [1, {"f": print}]))


def test_content_token_protocol_wins_over_dataclass_walk():
    class Tokened:
        def __init__(self, payload, noise):
            self.payload = payload
            self.noise = noise  # runtime state, excluded from identity

        def content_token(self):
            return self.payload

    assert content_key(Tokened(1, "a")) == content_key(Tokened(1, "b"))
    assert content_key(Tokened(1, "a")) != content_key(Tokened(2, "a"))


def test_rng_state_token_tracks_stream_position():
    rng = np.random.default_rng(7)
    t0 = rng_state_token(rng)
    assert t0 == rng_state_token(np.random.default_rng(7))
    rng.standard_normal(4)
    assert rng_state_token(rng) != t0


def test_capture_restore_rng_round_trip():
    rng = np.random.default_rng(11)
    rng.uniform(size=3)
    state = capture_rng_state(rng)
    expected = rng.standard_normal(5)
    restore_rng_state(rng, state)
    np.testing.assert_array_equal(rng.standard_normal(5), expected)


# -- the persisted byte stream ----------------------------------------
#
# Job keys name ``--cache-dir`` files, so the walker's byte stream
# must never drift. ``_update`` below is the original recursive
# walker, kept verbatim as the reference: every digest the module
# produces must equal the one this oracle feeds blake2b.


def _class_fields(cls):
    return tuple((f.name, f) for f in dataclasses.fields(cls))


def _update(h, obj: typing.Any) -> None:
    """Feed one object (recursively) into the hasher, type-tagged."""
    if obj is None:
        h.update(b"N")
    elif obj is True:
        h.update(b"T")
    elif obj is False:
        h.update(b"F")
    elif isinstance(obj, bytes):
        h.update(b"b")
        h.update(len(obj).to_bytes(8, "little"))
        h.update(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    elif isinstance(obj, int):
        h.update(b"i")
        raw = str(obj).encode("ascii")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    elif isinstance(obj, float):
        h.update(b"f")
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a")
        _update(h, str(arr.dtype))
        _update(h, arr.shape)
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"g")
        _update(h, str(obj.dtype))
        h.update(obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"l")
        h.update(len(obj).to_bytes(8, "little"))
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"d")
        h.update(len(obj).to_bytes(8, "little"))
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        h.update(b"e")
        h.update(len(obj).to_bytes(8, "little"))
        for item in sorted(obj, key=repr):
            _update(h, item)
    elif hasattr(obj, "content_token"):
        # Opt-in protocol: the object supplies the value that defines
        # its content (used to exclude runtime state like RNG caches).
        h.update(b"c")
        _update(h, type(obj).__qualname__)
        _update(h, obj.content_token())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _update(h, type(obj).__qualname__)
        for name, _f in _class_fields(type(obj)):
            _update(h, name)
            _update(h, getattr(obj, name))
    else:
        raise UncacheableValue(
            f"cannot derive a content key for {type(obj).__qualname__}"
        )


def oracle_key(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        _update(h, part)
    return h.hexdigest()


class _Tokened:
    def __init__(self, payload):
        self.payload = payload

    def content_token(self):
        return self.payload


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: typing.Any
    right: typing.Any


@dataclasses.dataclass(frozen=True)
class _TokenedPair(_Pair):
    """A dataclass whose ``content_token`` must beat the field walk."""

    def content_token(self):
        return self.left


class _Label(str):
    pass


class _Count(int):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Ratio(float):
    pass


class _Point(typing.NamedTuple):
    x: typing.Any
    y: typing.Any


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]

_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    _SPECIAL_FLOATS
)
_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _floats,
    st.text(max_size=8),
    st.binary(max_size=8),
)
_arrays = st.one_of(
    hnp.arrays(
        st.sampled_from(
            [np.float64, np.float32, np.int64, np.int16, np.uint8, np.bool_]
        ),
        hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
    ),
    # Non-contiguous views: strided and transposed.
    hnp.arrays(np.float64, (4, 6)).map(lambda a: a[::2, 1::3]),
    hnp.arrays(np.int32, (3, 5)).map(lambda a: a.T),
)
_leaves = st.one_of(
    _hashable_leaves,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
    st.text(max_size=4).map(_Label),
    st.integers().map(_Count),
    st.sampled_from(list(_Level)),
    _floats.map(_Ratio),
    st.text(max_size=4).map(np.str_),
    _arrays,
    st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180), _floats),
    st.frozensets(_hashable_leaves, max_size=4),
)


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable_leaves, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(
            collections.OrderedDict
        ),
        st.sets(_hashable_leaves, max_size=4),
        st.builds(_Point, children, children),
        st.builds(_Pair, children, children),
        st.builds(_TokenedPair, children, children),
        st.builds(_Tokened, children),
    )


_values = st.recursive(_leaves, _nested, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(st.lists(_values, min_size=1, max_size=3))
def test_digest_equals_reference_walker(parts):
    assert content_key(*parts) == oracle_key(*parts)


@pytest.mark.parametrize(
    "value",
    [
        True,
        False,
        0,
        1,
        -(2**100),
        np.float64(0.5),
        np.int64(-3),
        np.bool_(True),
        np.bool_(False),
        _Label("s"),
        _Level.HIGH,
        np.array(2.5),
        np.arange(12.0).reshape(3, 4)[:, ::2],
        struct.unpack("=d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],
        [None, (b"x", {"k": {1, 2}})],
    ],
    ids=repr,
)
def test_type_precedence_matches_reference(value):
    # bool before int, np.float64 as a float, numpy ints and bools as
    # numpy scalars, str subclasses as str; a NaN payload survives.
    assert content_key(value) == oracle_key(value)


#: Digests of fixed values, computed with the original walker. A change
#: here orphans every ``--cache-dir`` entry.
_TOWERS = (
    TvTower("K22CC", 22, GeoPoint(37.5, -122.1, 350.0), 76.5),
    TvTower("KCCC", 31, GeoPoint(37.2, -121.8, 600.0)),
    FmTower("KFMA", 240, GeoPoint(37.9, -122.4, 120.0), 78.25),
)


def _power(key=None):
    value = BatchPower(dbm=np.array([-71.5, -88.0, -102.25]))
    value.key = key
    return value


@pytest.mark.parametrize(
    "value, digest",
    [
        (GeoPoint(47.3769, 8.5417, 408.0), "84cc92582ff7564ffab979946dc5b4ea"),
        (make_window_site(), "abba23587b17cc25089d369a9e5014e1"),
        (_TOWERS, "5123dfa9c96564af4c27cc2b713f12ac"),
        (
            _power("0123456789abcdef0123456789abcdef"),
            "2cb39e716c97da8c119e2a7866c95c3a",
        ),
        (_power(), "2890e7016fb0e27331592939fe408c71"),
        (_Tokened((7, "rx", 2.5, None)), "9c97d3f991054f0591fed1133e720b3e"),
    ],
    ids=["geopoint", "site", "towers", "keyed", "unkeyed", "token"],
)
def test_golden_digests(value, digest):
    assert content_key(value) == digest
    assert oracle_key(value) == digest


def test_golden_job_key():
    job = CalibrationJob(node=NodeSpec("window-1", "window"), seed=96)
    assert job.content_key() == "8f98668941aa52c01cf14071e7565126"


@dataclasses.dataclass
class _Box:
    payload: typing.Any


def test_dataclass_header_does_not_shadow_content_token():
    # A token-bearing dataclass never takes the field walk, and a
    # class whose field walk is already known still defers to a token
    # on the instance.
    plain = _Pair(1, 2)
    tokened = _TokenedPair(1, 2)
    assert content_key(plain) == oracle_key(plain)
    assert content_key(tokened) == oracle_key(tokened)
    assert content_key(tokened) == content_key(_TokenedPair(1, 99))
    assert content_key(plain) != content_key(tokened)

    content_key(_Box(1))
    box = _Box(1)
    box.content_token = lambda: "token"
    assert content_key(box) == oracle_key(box)
    assert content_key(box) != content_key(_Box(1))


@pytest.mark.parametrize(
    "value",
    [
        lambda: None,
        object(),
        GeoPoint,
        ("nested", [1, {"f": print}]),
        bytearray(b"x"),
    ],
    ids=["lambda", "object", "dataclass-class", "nested", "bytearray"],
)
def test_uncacheable_exactly_as_reference(value):
    with pytest.raises(UncacheableValue):
        oracle_key(value)
    with pytest.raises(UncacheableValue):
        content_key(value)
