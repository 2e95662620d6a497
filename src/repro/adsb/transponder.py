"""Aircraft transponder behaviour.

Airborne aircraft broadcast position and velocity squitters at least
twice per second and identification every ~5 s (DO-260B). Transmit
power is 75-500 W depending on transponder class — which is why the
paper treats raw RSSI as weak evidence and relies on binary
received/missed instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.adsb.icao import IcaoAddress
from repro.adsb.messages import (
    AdsbFrame,
    build_acquisition_squitter,
    build_airborne_position,
    build_airborne_velocity,
    build_identification,
)

#: DO-260B squitter rates (seconds between transmissions).
POSITION_INTERVAL_S = 0.5
VELOCITY_INTERVAL_S = 0.5
IDENT_INTERVAL_S = 5.0
#: DF11 acquisition squitters are emitted about once per second.
ACQUISITION_INTERVAL_S = 1.0

#: Squitter kinds and their intervals, in per-aircraft RNG-draw order.
SQUITTER_KINDS = (
    ("position", POSITION_INTERVAL_S),
    ("velocity", VELOCITY_INTERVAL_S),
    ("identification", IDENT_INTERVAL_S),
    ("acquisition", ACQUISITION_INTERVAL_S),
)

#: Transponder output power range per RTCA SC-186 (75-500 W).
MIN_TX_POWER_W = 75.0
MAX_TX_POWER_W = 500.0


@dataclass(frozen=True)
class SquitterEvent:
    """One transmitted squitter: the frame plus physical metadata.

    Attributes:
        time_s: transmission time.
        frame: the 112-bit DF17 frame.
        tx_power_w: transponder output power in watts.
        lat_deg / lon_deg / alt_m: true transmitter position, kept for
            channel computation (never given to the decoder).
    """

    time_s: float
    frame: AdsbFrame
    tx_power_w: float
    lat_deg: float
    lon_deg: float
    alt_m: float


@dataclass
class Transponder:
    """Per-aircraft squitter scheduler.

    Attributes:
        icao: the aircraft's address.
        callsign: flight identification string.
        tx_power_w: output power, fixed per aircraft (drawn once from
            the 75-500 W class range at construction time).
        jitter_s: uniform transmission-time jitter amplitude.
    """

    icao: IcaoAddress
    callsign: str
    tx_power_w: float
    jitter_s: float = 0.05
    _odd_next: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not MIN_TX_POWER_W <= self.tx_power_w <= MAX_TX_POWER_W:
            raise ValueError(
                f"transponder power outside 75-500 W: {self.tx_power_w}"
            )

    @classmethod
    def with_random_power(
        cls,
        icao: IcaoAddress,
        callsign: str,
        rng: np.random.Generator,
    ) -> "Transponder":
        """Build a transponder with class-range random output power."""
        power = float(rng.uniform(MIN_TX_POWER_W, MAX_TX_POWER_W))
        return cls(icao=icao, callsign=callsign, tx_power_w=power)

    def squitters_between(
        self,
        t0_s: float,
        t1_s: float,
        position_at,
        rng: np.random.Generator,
    ) -> List[SquitterEvent]:
        """All squitters emitted in [t0, t1).

        ``position_at(t)`` must return (lat_deg, lon_deg, alt_m,
        east_kt, north_kt) for the aircraft at time ``t``.
        """
        if t1_s < t0_s:
            raise ValueError(f"bad interval [{t0_s}, {t1_s})")
        events: List[SquitterEvent] = []
        for kind, interval_s in SQUITTER_KINDS:
            events.extend(
                self._periodic(
                    t0_s, t1_s, interval_s, kind, position_at, rng
                )
            )
        events.sort(key=lambda e: e.time_s)
        return events

    def _periodic(
        self,
        t0_s: float,
        t1_s: float,
        interval_s: float,
        kind: str,
        position_at,
        rng: np.random.Generator,
    ) -> List[SquitterEvent]:
        events: List[SquitterEvent] = []
        # Phase-offset each aircraft's schedule by its address so a
        # population does not transmit in lockstep.
        phase = (self.icao.value % 997) / 997.0 * interval_s
        k = int(np.ceil((t0_s - phase) / interval_s))
        while True:
            t = phase + k * interval_s
            if t >= t1_s:
                break
            t_jittered = t + float(
                rng.uniform(-self.jitter_s, self.jitter_s)
            )
            t_jittered = min(max(t_jittered, t0_s), t1_s - 1e-9)
            lat, lon, alt_m, east_kt, north_kt = position_at(t_jittered)
            frame = self._build(kind, lat, lon, alt_m, east_kt, north_kt)
            events.append(
                SquitterEvent(
                    time_s=t_jittered,
                    frame=frame,
                    tx_power_w=self.tx_power_w,
                    lat_deg=lat,
                    lon_deg=lon,
                    alt_m=alt_m,
                )
            )
            k += 1
        return events

    def _build(
        self,
        kind: str,
        lat: float,
        lon: float,
        alt_m: float,
        east_kt: float,
        north_kt: float,
    ) -> AdsbFrame:
        if kind == "position":
            frame = build_airborne_position(
                self.icao, lat, lon, alt_m / 0.3048, odd=self._odd_next
            )
            self._odd_next = not self._odd_next
            return frame
        if kind == "velocity":
            return build_airborne_velocity(self.icao, east_kt, north_kt)
        if kind == "identification":
            return build_identification(self.icao, self.callsign)
        if kind == "acquisition":
            return build_acquisition_squitter(self.icao)
        raise ValueError(f"unknown squitter kind: {kind}")
