"""A dump1090-style ADS-B decoder.

Consumes either raw IQ blocks (through the PPM demodulator) or frame
bytes straight off the link simulation, validates Mode S parity,
parses messages, and resolves CPR positions — globally from even/odd
pairs when possible, locally against the receiver's own position
otherwise (the sensor's location is known, as in the paper). Reports
per-message RSSI like dump1090 does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.adsb.cpr import cpr_decode_global, cpr_decode_local
from repro.adsb.crc import crc24_matrix, fix_single_bit_error
from repro.adsb.icao import IcaoAddress
from repro.adsb.messages import (
    DF11_BYTES,
    DF17_BYTES,
    AcquisitionSquitter,
    AdsbFrame,
    AirbornePosition,
    AirborneVelocity,
    FrameError,
    Identification,
    parse_frame,
)
from repro.adsb.modem import SAMPLE_RATE_HZ, PpmDemodulator
from repro.geo.coords import GeoPoint


@dataclass(frozen=True)
class DecodedMessage:
    """One successfully decoded ADS-B message.

    Attributes:
        time_s: receive timestamp (simulation time).
        icao: transmitting aircraft's address.
        kind: "position", "velocity", or "identification".
        position: resolved GeoPoint for position messages (None until
            CPR can be resolved).
        velocity_kt: (east, north) ground speed for velocity messages.
        callsign: callsign for identification messages.
        rssi_dbfs: received signal strength as dump1090 reports it.
    """

    time_s: float
    icao: IcaoAddress
    kind: str
    position: Optional[GeoPoint] = None
    velocity_kt: Optional[Tuple[float, float]] = None
    callsign: Optional[str] = None
    rssi_dbfs: float = -50.0


#: ``BatchDecodeResult.kind_code`` values.
KIND_CODE_POSITION = 0
KIND_CODE_VELOCITY = 1
KIND_CODE_IDENTIFICATION = 2
KIND_CODE_ACQUISITION = 3
KIND_CODE_NONE = -1


@dataclass(frozen=True)
class BatchDecodeResult:
    """Outcome of a batch decode, one entry per input frame.

    Attributes:
        decoded: True where the frame passed parity and parsed into a
            modeled message type — exactly where the scalar
            ``decode_frame_bytes`` would return a message.
        icao24: the transmitted 24-bit address per frame (meaningful
            where ``decoded``).
        kind_code: ``KIND_CODE_*`` per frame; ``KIND_CODE_NONE`` where
            not decoded.
    """

    decoded: np.ndarray
    icao24: np.ndarray
    kind_code: np.ndarray


@dataclass
class _CprState:
    """Most recent even/odd CPR pair for one aircraft."""

    even: Optional[Tuple[int, int]] = None
    even_time_s: float = -math.inf
    odd: Optional[Tuple[int, int]] = None
    odd_time_s: float = -math.inf

    #: Max age difference for combining an even/odd pair (DO-260B: 10 s).
    MAX_PAIR_AGE_S = 10.0

    def update(
        self, odd: bool, cpr: Tuple[int, int], time_s: float
    ) -> None:
        if odd:
            self.odd = cpr
            self.odd_time_s = time_s
        else:
            self.even = cpr
            self.even_time_s = time_s

    def try_global(self) -> Optional[Tuple[float, float]]:
        if self.even is None or self.odd is None:
            return None
        if abs(self.even_time_s - self.odd_time_s) > self.MAX_PAIR_AGE_S:
            return None
        return cpr_decode_global(
            self.even, self.odd, self.odd_time_s >= self.even_time_s
        )


@dataclass
class Dump1090Decoder:
    """Stateful frame decoder with CPR resolution.

    Attributes:
        receiver_position: sensor location, used for local CPR decode
            (dump1090's ``--lat/--lon`` option) and plausibility checks.
        max_range_km: discard positions farther than this from the
            receiver (dump1090 does the same sanity check).
        fix_errors: attempt single-bit error correction on frames that
            fail the CRC (dump1090's ``--fix``).
    """

    receiver_position: Optional[GeoPoint] = None
    max_range_km: float = 400.0
    fix_errors: bool = False
    _cpr_states: Dict[IcaoAddress, _CprState] = field(default_factory=dict)
    #: Batch position updates not yet applied to ``_cpr_states``, in
    #: decode order: ``(position row indices, icao24, ME field,
    #: receive times)`` per :meth:`decode_frame_matrix` call.
    _cpr_pending: List[
        Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ] = field(default_factory=list)

    #: Counters mirroring dump1090's statistics output.
    frames_seen: int = 0
    frames_bad_crc: int = 0
    frames_fixed: int = 0
    messages_decoded: int = 0

    @property
    def _cpr(self) -> Dict[IcaoAddress, _CprState]:
        """Per-aircraft CPR pair state, with every batch update applied.

        :meth:`decode_frame_matrix` only queues its position rows: the
        directional scan never reads the state, so the per-aircraft
        writes are paid on the first read (a scalar decode or a test)
        instead of on every batch.
        """
        if self._cpr_pending:
            pending, self._cpr_pending = self._cpr_pending, []
            for update in pending:
                self._advance_cpr_state(*update)
        return self._cpr_states

    def decode_frame_bytes(
        self, data: bytes, time_s: float, rssi_dbfs: float
    ) -> Optional[DecodedMessage]:
        """Decode one Mode S frame; None if CRC fails or type unknown."""
        self.frames_seen += 1
        frame = AdsbFrame(data)
        if not frame.is_valid():
            repaired = (
                fix_single_bit_error(data) if self.fix_errors else None
            )
            if repaired is None:
                self.frames_bad_crc += 1
                return None
            self.frames_fixed += 1
            frame = AdsbFrame(repaired)
        try:
            message = parse_frame(frame)
        except FrameError:
            self.frames_bad_crc += 1
            return None
        if message is None:
            return None
        decoded = self._to_decoded(message, time_s, rssi_dbfs)
        if decoded is not None:
            self.messages_decoded += 1
        return decoded

    def decode_frame_matrix(
        self,
        data: np.ndarray,
        lengths: np.ndarray,
        times_s: np.ndarray,
    ) -> BatchDecodeResult:
        """Decode a whole capture's frames in one vectorized pass.

        ``data`` is an (n, 14) uint8 matrix of frames, zero-padded on
        the right for 7-byte short frames; ``lengths`` gives each
        row's true byte count. Runs the same pipeline as
        ``decode_frame_bytes`` row-for-row — CRC syndrome, single-bit
        repair when ``fix_errors`` is set, DF/TC classification, the
        TC 19 "no information" velocity rule — with identical counter
        updates, and returns which rows decoded instead of message
        objects.

        Position rows advance the per-aircraft CPR pair state (so a
        later scalar decode sees the same history) but are not
        resolved to lat/lon: batch consumers — the directional scan —
        use only the decode tally, never per-message positions. The
        advance is queued and applied when the state is next read.
        """
        d = np.asarray(data, dtype=np.uint8)
        lens = np.asarray(lengths, dtype=np.int64)
        n = d.shape[0]
        self.frames_seen += n
        if n == 0:
            return BatchDecodeResult(
                decoded=np.zeros(0, dtype=bool),
                icao24=np.zeros(0, dtype=np.int64),
                kind_code=np.full(0, KIND_CODE_NONE, dtype=np.int64),
            )
        long_m = lens == DF17_BYTES
        short_m = lens == DF11_BYTES
        if not bool(np.all(long_m | short_m)):
            raise FrameError(
                f"Mode S frames must be {DF11_BYTES} or {DF17_BYTES} "
                "bytes"
            )

        syndrome = np.zeros(n, dtype=np.uint32)
        for mask, body_len in ((long_m, 11), (short_m, 4)):
            if not mask.any():
                continue
            sub = d[mask]
            parity = (
                (sub[:, body_len].astype(np.uint32) << 16)
                | (sub[:, body_len + 1].astype(np.uint32) << 8)
                | sub[:, body_len + 2]
            )
            syndrome[mask] = crc24_matrix(sub[:, :body_len]) ^ parity
        valid = syndrome == 0
        if self.fix_errors and not bool(valid.all()):
            d = d.copy()
            for i in np.flatnonzero(~valid).tolist():
                row = bytes(d[i, : int(lens[i])])
                repaired = fix_single_bit_error(row)
                if repaired is None:
                    continue
                self.frames_fixed += 1
                d[i, : int(lens[i])] = np.frombuffer(
                    repaired, dtype=np.uint8
                )
                valid[i] = True
        self.frames_bad_crc += int((~valid).sum())

        df = d[:, 0] >> 3
        icao24 = (
            (d[:, 1].astype(np.int64) << 16)
            | (d[:, 2].astype(np.int64) << 8)
            | d[:, 3]
        )
        me = np.zeros(n, dtype=np.uint64)
        for k in range(7):
            me |= d[:, 4 + k].astype(np.uint64) << np.uint64(
                8 * (6 - k)
            )
        tc = d[:, 4] >> 3
        df17 = valid & long_m & (df == 17)
        position = df17 & (tc >= 9) & (tc <= 18)
        ident = df17 & (tc >= 1) & (tc <= 4)
        v_ew = (me >> np.uint64(32)) & np.uint64(0x3FF)
        v_ns = (me >> np.uint64(21)) & np.uint64(0x3FF)
        velocity = (
            df17
            & (tc == 19)
            & ((d[:, 4] & 0x7) == 1)
            & (v_ew != 0)
            & (v_ns != 0)
        )
        acquisition = valid & short_m & (df == 11)

        kind_code = np.full(n, KIND_CODE_NONE, dtype=np.int64)
        kind_code[position] = KIND_CODE_POSITION
        kind_code[velocity] = KIND_CODE_VELOCITY
        kind_code[ident] = KIND_CODE_IDENTIFICATION
        kind_code[acquisition] = KIND_CODE_ACQUISITION
        decoded = kind_code != KIND_CODE_NONE
        self.messages_decoded += int(decoded.sum())

        if position.any():
            self._cpr_pending.append(
                (
                    np.flatnonzero(position),
                    icao24,
                    me,
                    np.array(times_s, dtype=np.float64),
                )
            )
        return BatchDecodeResult(
            decoded=decoded, icao24=icao24, kind_code=kind_code
        )

    def _advance_cpr_state(
        self,
        pos_idx: np.ndarray,
        icao24: np.ndarray,
        me: np.ndarray,
        times_s: np.ndarray,
    ) -> None:
        """Apply a batch's position updates to the CPR pair state.

        Only each (aircraft, parity) key's LAST update matters —
        ``_CprState`` keeps the most recent pair — so one state write
        per key reproduces the scalar path's end state.
        """
        odd_bit = (me[pos_idx] >> np.uint64(34)) & np.uint64(1)
        key = icao24[pos_idx] * 2 + odd_bit.astype(np.int64)
        uniq, last_rev = np.unique(key[::-1], return_index=True)
        last = pos_idx.size - 1 - last_rev
        for k, j in zip(uniq.tolist(), last.tolist()):
            row = int(pos_idx[j])
            state = self._cpr_states.setdefault(
                IcaoAddress(int(k) // 2), _CprState()
            )
            state.update(
                bool(k % 2),
                (
                    int((me[row] >> np.uint64(17)) & np.uint64(0x1FFFF)),
                    int(me[row] & np.uint64(0x1FFFF)),
                ),
                float(times_s[row]),
            )

    def decode_iq(
        self, samples: np.ndarray, block_start_s: float = 0.0
    ) -> List[DecodedMessage]:
        """Demodulate a raw IQ block and decode every valid frame."""
        demod = PpmDemodulator()
        out: List[DecodedMessage] = []
        for start, frame_bytes, rssi_power in demod.demodulate(samples):
            time_s = block_start_s + start / SAMPLE_RATE_HZ
            rssi_dbfs = 10.0 * math.log10(max(rssi_power, 1e-15))
            msg = self.decode_frame_bytes(frame_bytes, time_s, rssi_dbfs)
            if msg is not None:
                out.append(msg)
        return out

    def _to_decoded(
        self, message, time_s: float, rssi_dbfs: float
    ) -> Optional[DecodedMessage]:
        if isinstance(message, AirbornePosition):
            position = self._resolve_position(message, time_s)
            return DecodedMessage(
                time_s=time_s,
                icao=message.icao,
                kind="position",
                position=position,
                rssi_dbfs=rssi_dbfs,
            )
        if isinstance(message, AirborneVelocity):
            return DecodedMessage(
                time_s=time_s,
                icao=message.icao,
                kind="velocity",
                velocity_kt=(
                    message.east_velocity_kt,
                    message.north_velocity_kt,
                ),
                rssi_dbfs=rssi_dbfs,
            )
        if isinstance(message, Identification):
            return DecodedMessage(
                time_s=time_s,
                icao=message.icao,
                kind="identification",
                callsign=message.callsign,
                rssi_dbfs=rssi_dbfs,
            )
        if isinstance(message, AcquisitionSquitter):
            return DecodedMessage(
                time_s=time_s,
                icao=message.icao,
                kind="acquisition",
                rssi_dbfs=rssi_dbfs,
            )
        return None

    def _resolve_position(
        self, message: AirbornePosition, time_s: float
    ) -> Optional[GeoPoint]:
        state = self._cpr.setdefault(message.icao, _CprState())
        state.update(
            message.odd, (message.cpr_lat, message.cpr_lon), time_s
        )
        latlon = state.try_global()
        if latlon is None and self.receiver_position is not None:
            latlon = cpr_decode_local(
                message.cpr_lat,
                message.cpr_lon,
                message.odd,
                self.receiver_position.lat_deg,
                self.receiver_position.lon_deg,
            )
        if latlon is None:
            return None
        lat, lon = latlon
        if not -90.0 <= lat <= 90.0:
            return None
        alt_m = (
            message.altitude_ft * 0.3048
            if message.altitude_ft is not None
            else 0.0
        )
        point = GeoPoint(lat, lon, alt_m)
        if self.receiver_position is not None:
            from repro.geo.distance import haversine_m

            if (
                haversine_m(self.receiver_position, point)
                > self.max_range_km * 1000.0
            ):
                return None
        return point
