"""The stream engine's sliding window over raw records.

The stream keeps no incremental statistics of its own. A node's
window is :class:`SlidingWindow`, a time-ordered deque of the joined
observations and ghosts it holds. At each window close and each
snapshot the engine materialises the window as a
:class:`~repro.core.observations.DirectionalScan` and runs the batch
estimators on it (:class:`OnlineSectorStats` is
:class:`~repro.core.fov.SectorHistogramEstimator`), so a streamed
window and a batch run over the same records agree by construction.

The engine closes a window before it appends the record that crossed
the boundary, and evicts everything older than ``window_s`` first, so
each close reduces exactly one tumbling window's records: O(1)
amortised per record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Tuple, Union

from repro.adsb.icao import IcaoAddress
from repro.core.fov import FieldOfViewEstimate, SectorHistogramEstimator
from repro.core.observations import AircraftObservation, DirectionalScan


class OnlineSectorStats(SectorHistogramEstimator):
    """The batch sector estimator, as the stream engine runs it."""

    def estimate(self, scan: DirectionalScan) -> FieldOfViewEstimate:
        # The benchmark traces stream estimates under this name.
        return super().estimate(scan)

    def evidence(self, scan: DirectionalScan) -> int:
        """Informative observations: those beyond the multipath floor."""
        return sum(
            1
            for obs in scan.observations
            if obs.ground_range_km >= self.min_range_km
        )


#: Window entries: ``(time_s, observation or ghost ICAO, n_messages)``.
_Entry = Tuple[float, Union[AircraftObservation, IcaoAddress], int]


@dataclass
class SlidingWindow:
    """Time-ordered window over observations and ghosts.

    The one place raw records are retained. Eviction walks only the
    expiring prefix, never the whole window.
    """

    window_s: float
    _entries: Deque[_Entry] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.window_s <= 0.0:
            raise ValueError(f"window must be positive: {self.window_s}")

    def add_observation(
        self, time_s: float, obs: AircraftObservation
    ) -> None:
        n_messages = obs.n_messages if obs.received else 0
        self._entries.append((time_s, obs, n_messages))

    def add_ghost(
        self, time_s: float, icao: IcaoAddress, n_messages: int = 1
    ) -> None:
        self._entries.append((time_s, icao, n_messages))

    def evict_until(self, now_s: float) -> int:
        """Expire entries strictly older than ``now_s - window_s``."""
        cutoff = now_s - self.window_s
        evicted = 0
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def to_scan(self, node_id: str, radius_m: float) -> DirectionalScan:
        """The window as a batch-shaped scan."""
        observations: List[AircraftObservation] = []
        ghosts: List[IcaoAddress] = []
        for _, payload, _ in self._entries:
            if isinstance(payload, AircraftObservation):
                observations.append(payload)
            else:
                ghosts.append(payload)
        return DirectionalScan(
            node_id=node_id,
            duration_s=self.window_s,
            radius_m=radius_m,
            observations=observations,
            decoded_message_count=sum(n for _, _, n in self._entries),
            ghost_icaos=sorted(ghosts),
        )
