"""Tests for the SBS-1 / BaseStation output format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsb.decoder import DecodedMessage
from repro.adsb.icao import IcaoAddress
from repro.adsb.sbs import parse_sbs, sbs_icao, stream_to_sbs, to_sbs
from repro.geo.coords import GeoPoint
from tests.test_stream_session import _damaged_lines, _sbs_lines

A = IcaoAddress(0xABC123)


def _msg(kind, **kwargs):
    return DecodedMessage(
        time_s=kwargs.pop("time_s", 12.5),
        icao=A,
        kind=kind,
        rssi_dbfs=-40.0,
        **kwargs,
    )


class TestRender:
    def test_position_line(self):
        msg = _msg(
            "position",
            position=GeoPoint(37.95123, -122.10456, 9144.0),
        )
        line = to_sbs(msg)
        parts = line.split(",")
        assert len(parts) == 22
        assert parts[0] == "MSG"
        assert parts[1] == "3"
        assert parts[4] == "ABC123"
        assert float(parts[14]) == pytest.approx(37.95123, abs=1e-5)
        assert float(parts[15]) == pytest.approx(-122.10456, abs=1e-5)
        assert float(parts[11]) == pytest.approx(30_000.0, abs=1.0)

    def test_identification_line(self):
        line = to_sbs(_msg("identification", callsign="UAL99"))
        parts = line.split(",")
        assert parts[1] == "1"
        assert parts[10] == "UAL99"

    def test_velocity_line(self):
        line = to_sbs(
            _msg("velocity", velocity_kt=(100.0, -100.0))
        )
        parts = line.split(",")
        assert parts[1] == "4"
        assert float(parts[12]) == pytest.approx(
            math.hypot(100.0, 100.0), abs=1.0
        )
        assert float(parts[13]) == pytest.approx(135.0, abs=1.0)

    def test_acquisition_line(self):
        parts = to_sbs(_msg("acquisition")).split(",")
        assert parts[1] == "8"
        assert parts[10] == ""  # no callsign

    def test_timestamp_format(self):
        line = to_sbs(_msg("acquisition", time_s=3725.25))
        parts = line.split(",")
        assert parts[7] == "01:02:05.250"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            to_sbs(_msg("telemetry"))

    def test_stream(self):
        text = stream_to_sbs(
            [_msg("acquisition"), _msg("identification", callsign="X")]
        )
        assert text.count("\n") == 1
        assert text.count("MSG") == 2


class TestParse:
    def test_roundtrip_position(self):
        msg = _msg(
            "position", position=GeoPoint(37.9, -122.1, 9000.0)
        )
        record = parse_sbs(to_sbs(msg))
        assert record.kind == "position"
        assert record.icao == A
        assert record.position.lat_deg == pytest.approx(37.9, abs=1e-5)
        assert record.position.alt_m == pytest.approx(9000.0, abs=5.0)

    def test_roundtrip_identification(self):
        record = parse_sbs(
            to_sbs(_msg("identification", callsign="KLM1023"))
        )
        assert record.callsign == "KLM1023"

    def test_roundtrip_velocity(self):
        record = parse_sbs(
            to_sbs(_msg("velocity", velocity_kt=(0.0, 250.0)))
        )
        assert record.speed_kt == pytest.approx(250.0)
        assert record.track_deg == pytest.approx(0.0)

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_sbs("MSG,3,too,short")
        with pytest.raises(ValueError):
            parse_sbs(",".join(["SEL"] + ["x"] * 21))
        with pytest.raises(ValueError):
            parse_sbs(",".join(["MSG", "7"] + [""] * 20))


def _outcome(parse, line):
    """``("icao", value)`` for an accepted line, else the error text."""
    try:
        return ("icao", parse(line))
    except ValueError as exc:
        return ("error", str(exc))


def _oracle(line):
    return _outcome(lambda text: parse_sbs(text).icao.value, line)


#: Field values that stress the numeric checks: non-finite and
#: overflowing floats, out-of-range latitudes and addresses, and
#: underscore literals that ``int`` and ``float`` both accept.
_JUNK = [
    "nan", "inf", "-inf", "1e999", "-91", "91", "-1", "FFFFFFF",
    "3_0", "", "x", "y", " 7 ", "0x10", "1000000",
]


def _with_fields(line, replacements):
    parts = line.split(",")
    for index, value in replacements:
        if index < len(parts):
            parts[index] = value
    return ",".join(parts)


_junk_field_lines = st.builds(
    _with_fields,
    _damaged_lines,
    st.lists(
        st.tuples(st.integers(0, 21), st.sampled_from(_JUNK)),
        min_size=1,
        max_size=4,
    ),
)


_COLUMNS = {
    "tt": 1, "icao": 4, "alt": 11, "speed": 12, "track": 13,
    "lat": 14, "lon": 15,
}


def _position_line(**fields):
    """A position line with some columns overwritten by name."""
    line = to_sbs(
        _msg("position", position=GeoPoint(37.9, -122.1, 9000.0))
    )
    return _with_fields(
        line, [(_COLUMNS[name], value) for name, value in fields.items()]
    )


_FLOAT_X = "could not convert string to float: 'x'"

#: Hand-picked edge cases with the outcome both functions must give.
_EDGE_CASES = [
    # The altitude is parsed only when lat and lon are both present.
    (_position_line(alt="x", lat=""), ("icao", 0xABC123)),
    (_position_line(alt="x", lon=""), ("icao", 0xABC123)),
    (_position_line(alt="x"), ("error", _FLOAT_X)),
    (_position_line(lat="x", lon=""), ("icao", 0xABC123)),
    (_position_line(alt="1e999"), ("icao", 0xABC123)),
    (_position_line(alt="nan"), ("icao", 0xABC123)),
    # GeoPoint's range checks: latitude first, then a finite longitude.
    (_position_line(lat="nan"), ("error", "latitude out of range: nan")),
    (_position_line(lat="-91"), ("error", "latitude out of range: -91.0")),
    (_position_line(lat="90"), ("icao", 0xABC123)),
    (_position_line(lon="540"), ("icao", 0xABC123)),
    (_position_line(lon="inf"), ("error", "longitude must be finite: inf")),
    (_position_line(lon="1e999"), ("error", "longitude must be finite: inf")),
    (_position_line(lat="91", lon="nan"),
     ("error", "latitude out of range: 91.0")),
    # The first failing check names the error.
    (_position_line(alt="x", lat="-91"), ("error", _FLOAT_X)),
    (_position_line(lat="x", lon="y"), ("error", _FLOAT_X)),
    (_position_line(lat="x", speed="y"), ("error", _FLOAT_X)),
    (_position_line(lat="-91", speed="x"),
     ("error", "latitude out of range: -91.0")),
    (_position_line(tt="7", icao="-1"),
     ("error", "unsupported transmission type: 7")),
    # Speed and track are parsed, not range-checked.
    (_position_line(speed="nan", track="-1"), ("icao", 0xABC123)),
    (_position_line(speed="x"), ("error", _FLOAT_X)),
    (_position_line(track="x"), ("error", _FLOAT_X)),
    # Transmission type and address.
    (_position_line(tt="3_0"), ("error", "unsupported transmission type: 30")),
    (_position_line(tt="x"),
     ("error", "invalid literal for int() with base 10: 'x'")),
    (_position_line(icao="3_0"), ("icao", 0x30)),
    (_position_line(icao="FFFFFF"), ("icao", 0xFFFFFF)),
    (_position_line(icao="1000000"),
     ("error", "ICAO address out of range: 0x1000000")),
    (_position_line(icao="FFFFFFF"),
     ("error", "ICAO address out of range: 0xfffffff")),
    (_position_line(icao="-1"), ("error", "ICAO address out of range: -0x1")),
    (_position_line(icao=""),
     ("error", "invalid literal for int() with base 16: ''")),
    # Framing: the whole line is stripped, then split on commas.
    ("  " + _position_line() + "\r\n", ("icao", 0xABC123)),
    (",".join(["SEL"] + [""] * 21), ("error", "not a MSG record: 'SEL'")),
    ("MSG,3,too,short", ("error", "SBS line must have 22 fields, got 4")),
    (_position_line() + ",",
     ("error", "SBS line must have 22 fields, got 23")),
    ("", ("error", "SBS line must have 22 fields, got 1")),
]


class TestScanner:
    """``sbs_icao`` accepts and rejects exactly what ``parse_sbs`` does."""

    @pytest.mark.parametrize(
        "line, expected", _EDGE_CASES, ids=range(len(_EDGE_CASES))
    )
    def test_edge_cases(self, line, expected):
        assert _oracle(line) == expected
        assert _outcome(sbs_icao, line) == expected

    def test_every_kind_roundtrips(self):
        for msg in (
            _msg("acquisition"),
            _msg("identification", callsign="KLM1023"),
            _msg("position", position=GeoPoint(37.9, -122.1, 9000.0)),
            _msg("velocity", velocity_kt=(0.0, 250.0)),
        ):
            assert sbs_icao(to_sbs(msg)) == A.value

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            _sbs_lines(),
            _damaged_lines,
            _junk_field_lines,
            st.text(max_size=200),
            st.text(alphabet="MSG,0123456789.-+eEinfaxAF_ ", max_size=120),
        )
    )
    def test_agrees_with_parse_sbs(self, line):
        assert _outcome(sbs_icao, line) == _oracle(line)
