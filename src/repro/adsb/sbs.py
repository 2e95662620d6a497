"""SBS-1 / BaseStation message format.

dump1090 serves decoded traffic on TCP port 30003 in the BaseStation
CSV format ("MSG,3,..."), which virtually every ADS-B consumer can
read. This module renders :class:`~repro.adsb.decoder.DecodedMessage`
streams into that format and parses it back, so simulated nodes can
interoperate with real feeder tooling. :func:`parse_sbs` builds a full
:class:`SbsRecord`; :func:`sbs_icao` only validates a line and returns
its ICAO address, for consumers that read nothing else.

Field layout (22 comma-separated columns):

    MSG,<tt>,<sid>,<aid>,<hexident>,<fid>,<dategen>,<timegen>,
    <datelog>,<timelog>,<callsign>,<altitude_ft>,<speed_kt>,
    <track>,<lat>,<lon>,<vrate>,<squawk>,<alert>,<emergency>,
    <spi>,<onground>

Transmission types used here: 1 = identification, 3 = airborne
position, 4 = airborne velocity, 8 = all-call (acquisition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.adsb.decoder import DecodedMessage
from repro.adsb.icao import IcaoAddress
from repro.geo.coords import GeoPoint

#: Meters per foot.
_FT = 0.3048

#: Transmission-type codes by message kind.
_TT_BY_KIND = {
    "identification": 1,
    "position": 3,
    "velocity": 4,
    "acquisition": 8,
}
_KIND_BY_TT = {v: k for k, v in _TT_BY_KIND.items()}


def _timestamp_fields(time_s: float) -> List[str]:
    """Date/time columns from a simulation timestamp.

    The simulation clock starts at an arbitrary epoch; emit it as
    day 1 with a HH:MM:SS.mmm time-of-day.
    """
    seconds = max(time_s, 0.0)
    hours = int(seconds // 3600) % 24
    minutes = int(seconds // 60) % 60
    secs = seconds % 60.0
    stamp = f"{hours:02d}:{minutes:02d}:{secs:06.3f}"
    return ["2023/11/28", stamp, "2023/11/28", stamp]


def to_sbs(message: DecodedMessage) -> str:
    """Render one decoded message as a BaseStation CSV line."""
    tt = _TT_BY_KIND.get(message.kind)
    if tt is None:
        raise ValueError(f"unknown message kind: {message.kind}")
    fields = ["MSG", str(tt), "1", "1", str(message.icao), "1"]
    fields += _timestamp_fields(message.time_s)
    callsign = ""
    altitude = ""
    speed = ""
    track = ""
    lat = ""
    lon = ""
    vrate = ""
    if message.kind == "identification":
        callsign = message.callsign or ""
    elif message.kind == "position" and message.position is not None:
        lat = f"{message.position.lat_deg:.5f}"
        lon = f"{message.position.lon_deg:.5f}"
        altitude = f"{message.position.alt_m / _FT:.0f}"
    elif message.kind == "velocity" and message.velocity_kt:
        east, north = message.velocity_kt
        speed = f"{math.hypot(east, north):.0f}"
        track = f"{math.degrees(math.atan2(east, north)) % 360.0:.0f}"
    fields += [
        callsign, altitude, speed, track, lat, lon, vrate,
        "", "0", "0", "0", "0",
    ]
    return ",".join(fields)


def stream_to_sbs(messages: List[DecodedMessage]) -> str:
    """Render a batch of messages, one line each."""
    return "\n".join(to_sbs(m) for m in messages)


@dataclass(frozen=True)
class SbsRecord:
    """A parsed BaseStation line (the fields this library emits)."""

    kind: str
    icao: IcaoAddress
    callsign: Optional[str]
    position: Optional[GeoPoint]
    speed_kt: Optional[float]
    track_deg: Optional[float]


def parse_sbs(line: str) -> SbsRecord:
    """Parse one BaseStation CSV line.

    Raises ValueError for lines that are not MSG records or have the
    wrong column count.
    """
    parts = line.strip().split(",")
    if len(parts) != 22:
        raise ValueError(
            f"SBS line must have 22 fields, got {len(parts)}"
        )
    if parts[0] != "MSG":
        raise ValueError(f"not a MSG record: {parts[0]!r}")
    tt = int(parts[1])
    kind = _KIND_BY_TT.get(tt)
    if kind is None:
        raise ValueError(f"unsupported transmission type: {tt}")
    icao = IcaoAddress(int(parts[4], 16))
    callsign = parts[10] or None
    position = None
    if parts[14] and parts[15]:
        alt_ft = float(parts[11]) if parts[11] else 0.0
        position = GeoPoint(
            float(parts[14]), float(parts[15]), alt_ft * _FT
        )
    speed = float(parts[12]) if parts[12] else None
    track = float(parts[13]) if parts[13] else None
    return SbsRecord(
        kind=kind,
        icao=icao,
        callsign=callsign,
        position=position,
        speed_kt=speed,
        track_deg=track,
    )


def sbs_icao(line: str) -> int:
    """Validate one BaseStation CSV line and return its ICAO address.

    Accepts and rejects exactly the lines :func:`parse_sbs` does, with
    the same ``ValueError`` message, but builds no record: it runs the
    same checks in the same order (field count, ``MSG`` tag,
    transmission type, 24-bit address, the position and its
    :class:`~repro.geo.coords.GeoPoint` range checks, speed, track)
    and keeps only the address as a plain int.
    """
    parts = line.strip().split(",")
    if len(parts) != 22:
        raise ValueError(
            f"SBS line must have 22 fields, got {len(parts)}"
        )
    if parts[0] != "MSG":
        raise ValueError(f"not a MSG record: {parts[0]!r}")
    tt = int(parts[1])
    if tt not in _KIND_BY_TT:
        raise ValueError(f"unsupported transmission type: {tt}")
    value = int(parts[4], 16)
    if not 0 <= value < (1 << 24):
        # IcaoAddress's check and message
        raise ValueError(f"ICAO address out of range: {value:#x}")
    if parts[14] and parts[15]:
        if parts[11]:
            float(parts[11])
        lat = float(parts[14])
        lon = float(parts[15])
        # GeoPoint's checks and messages
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude out of range: {lat}")
        if not math.isfinite(lon):
            raise ValueError(f"longitude must be finite: {lon}")
    if parts[12]:
        float(parts[12])
    if parts[13]:
        float(parts[13])
    return value
