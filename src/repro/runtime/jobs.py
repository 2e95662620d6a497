"""Calibration job specs: what to run, described by value.

A job must be (a) tiny, so queues stay cheap, and (b) fully
deterministic, so two runs of the same job produce bit-identical
assessments. Jobs therefore carry *specifications* — the world seed
and the node's configuration — rather than live objects; workers
build the heavy simulation state from them once per world spec (see
:mod:`repro.runtime.workers`).

The :meth:`CalibrationJob.content_key` hash over (node config, world
seed, pipeline version) is the identity the result cache, and so a
resumed campaign, is addressed by: change any input that could change
the assessment and the key changes with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.observations import DirectionalScan
from repro.engines.contentkey import content_key
from repro.node.fabrication import (
    FabricationStrategy,
    GhostTrafficFabricator,
    OmniscientFabricator,
)
from repro.node.sensor import SensorNode

if TYPE_CHECKING:
    # repro.experiments imports the runtime (experiments/fleet.py runs
    # through campaigns), so the runtime must not import experiments at
    # module scope — worlds are built lazily inside WorldSpec/NodeSpec.
    from repro.experiments.common import World

#: Version of the calibration pipeline baked into every content key.
#: Bump whenever a change anywhere in the pipeline can alter
#: assessment results, so stale cache entries are invalidated instead
#: of silently reused.
PIPELINE_VERSION = "1.0.0"


class InjectedFault(RuntimeError):
    """Raised by the ``crash`` fabrication: a deliberately failing node."""


@dataclass
class CrashingFabricator:
    """Fault injection: the node dies while reporting its scan.

    Used to exercise the runtime's partial-failure path (FAILED jobs,
    campaigns that survive a crashing node) through the exact code
    path a real mid-measurement crash would take.
    """

    message: str = "injected node fault"

    def fabricate(
        self, honest: DirectionalScan, rng: np.random.Generator
    ) -> DirectionalScan:
        raise InjectedFault(self.message)


@dataclass(frozen=True)
class WorldSpec:
    """Everything needed to rebuild the shared simulation world.

    Defaults mirror :func:`repro.experiments.common.build_world`, so
    ``WorldSpec()`` describes the standard experiment world.
    """

    traffic_seed: int = 42
    n_aircraft: int = 80  # experiments.common.DEFAULT_N_AIRCRAFT
    fr24_latency_s: float = 10.0

    def build(self) -> World:
        from repro.experiments.common import build_world

        return build_world(
            traffic_seed=self.traffic_seed,
            n_aircraft=self.n_aircraft,
            fr24_latency_s=self.fr24_latency_s,
        )

    @classmethod
    def from_world(cls, world: World) -> "WorldSpec":
        """Recover the spec an existing world was built from."""
        return cls(
            traffic_seed=world.traffic.rng_seed,
            n_aircraft=world.traffic.config.n_aircraft,
            fr24_latency_s=world.ground_truth.latency_s,
        )


#: Antenna variants a node spec may name. ``standard`` is the
#: SensorNode default wideband antenna; ``damaged_cable`` is the
#: hardware-faults experiment's water-damaged feedline.
ANTENNA_VARIANTS = ("standard", "damaged_cable")


def _antenna_for(variant: str):
    if variant == "standard":
        return None  # SensorNode's default wideband antenna
    if variant == "damaged_cable":
        from repro.experiments.hardware_faults import (
            DAMAGED_CABLE_ANTENNA,
        )

        return DAMAGED_CABLE_ANTENNA
    raise ValueError(f"unknown antenna variant: {variant!r}")


def build_fabrication(
    spec: Optional[str],
) -> Optional[FabricationStrategy]:
    """Instantiate a fabrication strategy from its spec string.

    ``None`` means an honest node. ``"omniscient"`` and ``"ghost:N"``
    name the adversary models; ``"crash"`` injects a node fault.
    """
    if spec is None:
        return None
    name, _, arg = spec.partition(":")
    if name == "omniscient":
        return OmniscientFabricator()
    if name == "ghost":
        return GhostTrafficFabricator(n_ghosts=int(arg or 30))
    if name == "crash":
        return CrashingFabricator(message=arg or "injected node fault")
    raise ValueError(f"unknown fabrication spec: {spec!r}")


@dataclass(frozen=True)
class NodeSpec:
    """One node's configuration, by value.

    Attributes:
        node_id: unique id within the campaign.
        location: testbed site name (``rooftop``/``window``/``indoor``).
        antenna: key into :data:`ANTENNAS`.
        fabrication: optional fabrication spec string (see
            :func:`build_fabrication`).
    """

    node_id: str
    location: str
    antenna: str = "standard"
    fabrication: Optional[str] = None

    def __post_init__(self) -> None:
        if self.antenna not in ANTENNA_VARIANTS:
            raise ValueError(f"unknown antenna variant: {self.antenna!r}")
        build_fabrication(self.fabrication)  # validate eagerly

    def build(self, world: World) -> SensorNode:
        """Instantiate the node against a concrete world."""
        site = world.testbed.site(self.location)
        antenna = _antenna_for(self.antenna)
        if antenna is None:
            return SensorNode(self.node_id, site)
        return SensorNode(self.node_id, site, antenna=antenna)


@dataclass(frozen=True)
class CalibrationJob:
    """One schedulable unit of work: calibrate one node.

    Every field joins the content key, so a job is a pure function of
    it: the runtime runs each job once and never retries.
    """

    node: NodeSpec
    world: WorldSpec = field(default_factory=WorldSpec)
    seed: int = 0
    pipeline_version: str = PIPELINE_VERSION

    @property
    def job_id(self) -> str:
        return self.node.node_id

    def content_key(self) -> str:
        """Deterministic hash of everything that shapes the result.

        The same blake2b content key the path cache addresses its
        stages by (:func:`repro.engines.contentkey.content_key`).
        """
        return content_key(
            self.node, self.world, self.seed, self.pipeline_version
        )
