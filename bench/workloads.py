"""The benchmark's workloads: seeded inputs, a timed closed loop, checks.

Each workload has two halves. ``setup`` builds every input from the
seed (through ``numpy.random.SeedSequence``) and brings the system up;
``run`` drives a fixed number of operations through it on one thread,
each one issued only after the previous one returned (a closed loop),
timing them, and then checks the outputs. Only operations are timed.

A workload's size is a count of rounds (campaigns, windows, request
blocks), so two commits given the same ``--seconds`` do the same work;
the count is ``seconds`` times the rate measured at the reference speed
(:data:`hostspeed.REFERENCE_S`), so the timed work of a run lasts about
``--seconds`` at that speed, and longer on a busier host.

Between operations, outside every timed interval, a run samples the
host's speed (:mod:`hostspeed`); :func:`summarize` scales every timed
interval to the reference speed and then takes whole-run statistics.

============  ========================  ==========================
workload      operation                 batch
============  ========================  ==========================
fleet_cold    ``execute_job``           one campaign and its JSON
fleet_rerun   ``execute_job``           one campaign and its JSON
stream_live   ``drain_node``            one window, all 12 nodes
serve_mixed   ``SpectrumApp.handle``    one ``FleetStore.publish``
============  ========================  ==========================
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adsb.decoder import Dump1090Decoder
from repro.adsb.sbs import to_sbs
from repro.core import serialize
from repro.core.directional import ADSB_BANDWIDTH_HZ, DECODE_SNR_DB
from repro.core.network import NetworkAssessments
from repro.engines import configure_path_cache
from repro.environment.links import AdsbLinkModel
from repro.experiments.common import build_world
from repro.geo.coords import GeoPoint
from repro.runtime import workers
from repro.runtime.campaign import (
    FleetCampaign,
    fleet_jobs,
    standard_fleet_specs,
)
from repro.runtime.jobs import WorldSpec
from repro.serve.app import SpectrumApp
from repro.serve.cache import ResponseCache
from repro.serve.http import Request
from repro.serve.store import FleetStore
from repro.serve.synthetic import BANDS, synthetic_fleet
from repro.stream import (
    GatewayConfig,
    HeartbeatRecord,
    OverflowPolicy,
    SbsLineRecord,
    StreamGateway,
    TruthBatchRecord,
)
from hostspeed import HostSpeed
from spans import Tracer

#: ``(perf_counter at the start, seconds)`` of one timed interval.
Interval = Tuple[float, float]


@dataclass
class Outcome:
    """What one timed run did, how long it took, and what went wrong."""

    #: nodes calibrated, records ingested, or requests + publishes
    units: int
    #: every timed interval; together they are the run's timed wall
    timed: List[Interval]
    ops: List[Interval]
    batches: List[Interval]
    speed: HostSpeed
    attempted: int
    failed: int
    failures: List[str]
    digest: str
    #: Counts that depend only on the seed (same seed -> same values).
    work: Dict[str, int]
    #: Outcome counts reported as per-layer metrics in traced runs.
    layer: Dict[str, float] = field(default_factory=dict)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with ten samples above it; None means the max."""
    for p in (99.0, 98.0, 97.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def summarize(outcome: Outcome) -> Dict[str, float]:
    """The end-to-end statistics of one run, at the reference speed."""
    scale = outcome.speed.scale
    ops = scale(outcome.ops)
    p = tail_percentile(len(ops))
    return {
        "ops_per_s": outcome.units / float(scale(outcome.timed).sum()),
        "op_ms_p50": 1e3 * float(np.median(ops)),
        "op_ms_tail": 1e3 * float(ops.max() if p is None
                                  else np.percentile(ops, p)),
        "batch_ms": 1e3 * float(np.median(scale(outcome.batches))),
    }


class _NoTrace:
    """Stands in for :class:`Tracer` on untraced runs."""

    def op(self, tag: Any) -> "_NoTrace":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


NO_TRACE = _NoTrace()


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _seed31(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _sha(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fleet: calibration campaigns

#: Fleet nodes whose operators fabricate uploads (standard fleet).
CHEATERS = ("indoor-3", "window-3")


def _run_campaign(world, traffic_seed: int, seed: int, jobs: List[Interval]):
    """One standard 12-node campaign plus its JSON; job times appended."""

    def runner(job):
        started = time.perf_counter()
        assessment = workers.execute_job(job)
        jobs.append((started, time.perf_counter() - started))
        return assessment

    specs = fleet_jobs(seed=seed, world=WorldSpec(traffic_seed=traffic_seed))
    result = FleetCampaign(specs, world=world, runner=runner).run()
    text = serialize.network_to_json(NetworkAssessments(result.assessments))
    return result, text


class _FleetTally:
    """Timings, checks and work counts over a series of campaigns."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.ops: List[Interval] = []
        self.batches: List[Interval] = []
        self.failures: List[str] = []
        self.jobs = 0
        self.work = dict.fromkeys(
            ("nodes", "decoded", "path_cache_hits", "path_cache_misses",
             "false_rejects"), 0,
        )

    def campaign(self, tag: str, tracer, world, traffic_seed, seed) -> str:
        self.speed.idle()
        with tracer.op(tag):
            started = time.perf_counter()
            result, text = _run_campaign(world, traffic_seed, seed, self.ops)
            self.batches.append((started, time.perf_counter() - started))
        assessments = result.assessments
        self.jobs += 12
        if len(assessments) != 12 or result.failed():
            self.failures.append(
                f"{tag}: {len(assessments)} assessments, failed jobs "
                f"{[e.job_id for e in result.failed()]}"
            )
        rejected = {
            node_id
            for node_id, a in assessments.items()
            if not a.trust.is_trustworthy()
        }
        for cheater in CHEATERS:
            if cheater not in rejected:
                self.failures.append(f"{tag}: {cheater} was not rejected")
        work = self.work
        work["nodes"] += len(assessments)
        work["decoded"] += sum(
            a.report.scan.decoded_message_count for a in assessments.values()
        )
        work["path_cache_hits"] += result.metrics["path_cache_hits"]
        work["path_cache_misses"] += result.metrics["path_cache_misses"]
        work["false_rejects"] += len(rejected - set(CHEATERS))
        return text

    def outcome(self, digest: str) -> Outcome:
        self.speed.sample()
        return Outcome(
            units=self.work["nodes"],
            timed=self.batches,
            ops=self.ops,
            batches=self.batches,
            speed=self.speed,
            attempted=self.jobs,
            failed=self.jobs - self.work["nodes"] + len(self.failures),
            failures=self.failures,
            digest=digest,
            work=self.work,
            layer={"core.network.false_rejects": self.work["false_rejects"]},
        )


@dataclass
class FleetColdState:
    seeds: List[Tuple[int, int]]  # (traffic seed, campaign seed)


def setup_fleet_cold(seed: int, count: int) -> FleetColdState:
    rng = _rng(seed)
    return FleetColdState(
        seeds=[(_seed31(rng), _seed31(rng)) for _ in range(count)]
    )


def run_fleet_cold(state: FleetColdState, tracer=NO_TRACE) -> Outcome:
    tally = _FleetTally()
    texts = []
    for k, (traffic_seed, seed) in enumerate(state.seeds):
        world = build_world(traffic_seed=traffic_seed)
        configure_path_cache(enabled=True, clear=True)
        texts.append(
            tally.campaign(f"campaign-{k}", tracer, world, traffic_seed, seed)
        )
    # The path cache must never change a result: campaign 0 again on a
    # fresh world with the cache off, byte for byte.
    traffic_seed, seed = state.seeds[0]
    configure_path_cache(enabled=False, clear=True)
    try:
        _, reference = _run_campaign(
            build_world(traffic_seed=traffic_seed), traffic_seed, seed, []
        )
    finally:
        configure_path_cache(enabled=True, clear=True)
    if reference != texts[0]:
        tally.failures.append("campaign 0 differs from its cache-off run")
    return tally.outcome(_sha(texts))


@dataclass
class FleetRerunState:
    world: Any
    traffic_seed: int
    seed: int
    reruns: int
    primed_text: str


def setup_fleet_rerun(seed: int, count: int) -> FleetRerunState:
    rng = _rng(seed)
    traffic_seed, campaign_seed = _seed31(rng), _seed31(rng)
    world = build_world(traffic_seed=traffic_seed)
    configure_path_cache(enabled=True, clear=True)
    _, text = _run_campaign(world, traffic_seed, campaign_seed, [])
    return FleetRerunState(world, traffic_seed, campaign_seed, count, text)


def run_fleet_rerun(state: FleetRerunState, tracer=NO_TRACE) -> Outcome:
    tally = _FleetTally()
    for k in range(state.reruns):
        text = tally.campaign(
            f"campaign-{k}", tracer, state.world, state.traffic_seed,
            state.seed,
        )
        if text != state.primed_text:
            tally.failures.append(f"rerun {k} differs from the priming run")
    return tally.outcome(_sha(state.primed_text, tally.work))


# ---------------------------------------------------------------------------
# stream: the live ingest gateway

#: One airspace, as one gateway sees: the standard world's traffic. The
#: seed draws the captures and which one each node sends per window.
STREAM_TRAFFIC_SEED = 42
#: Captures rendered per distinct node configuration.
STREAM_CAPTURES = 2
STREAM_WINDOW_S = 30.0
#: The node that moves indoors halfway through the run.
STREAM_SWAPPED = "rooftop-1"
#: Queue bound: twice the largest node-window seen over 24 seeds
#: (7.8k records), so publishing a whole window never blocks.
STREAM_QUEUE_CAPACITY = 16384


@dataclass
class StreamState:
    node_ids: List[str]
    positions: Dict[str, Any]
    truth: list
    #: per window, per node: the capture's (offset_s, SBS line) pairs
    plan: List[List[List[Tuple[float, str]]]]
    swap_at: int


def _render_capture(world, spec, events, rng) -> List[Tuple[float, str]]:
    """One node's decoded SBS lines for a simulated 30 s capture."""
    node = spec.build(world)
    link = AdsbLinkModel(env=node.environment, rx_antenna=node.antenna)
    decoder = Dump1090Decoder(receiver_position=node.position)
    threshold = node.sdr.noise_floor_dbm(ADSB_BANDWIDTH_HZ) + DECODE_SNR_DB
    lines = []
    for event in events:
        rx_dbm = link.message_received_power_dbm(
            event.frame.icao,
            GeoPoint(event.lat_deg, event.lon_deg, event.alt_m),
            event.tx_power_w,
            rng,
            time_s=event.time_s,
        )
        if rx_dbm < threshold:
            continue
        message = decoder.decode_frame_bytes(
            event.frame.data, event.time_s, node.sdr.input_dbm_to_dbfs(rx_dbm)
        )
        if message is not None:
            lines.append((event.time_s, to_sbs(message)))
    return lines


def setup_stream_live(seed: int, count: int) -> StreamState:
    rng = _rng(seed)
    world = build_world(traffic_seed=STREAM_TRAFFIC_SEED)
    specs = standard_fleet_specs()
    # The same squitters reach every site; each configuration sees them
    # through its own link budget and decoder.
    schedules = [
        world.traffic.squitters_between(
            0.0, STREAM_WINDOW_S, _rng(_seed31(rng))
        )
        for _ in range(STREAM_CAPTURES)
    ]
    captures: Dict[Tuple[str, str], list] = {}
    for spec in specs:
        config = (spec.location, spec.antenna)
        if config not in captures:
            captures[config] = [
                _render_capture(world, spec, events, _rng(_seed31(rng)))
                for events in schedules
            ]
    positions = {spec.node_id: spec.build(world).position for spec in specs}
    truth = world.ground_truth.query(
        positions[specs[0].node_id], 100_000.0, STREAM_WINDOW_S / 2
    )
    swap_at = count // 2
    plan = []
    for k in range(count):
        row = []
        for spec in specs:
            config = (spec.location, spec.antenna)
            if spec.node_id == STREAM_SWAPPED and k >= swap_at:
                config = ("indoor", "standard")
            row.append(captures[config][int(rng.integers(STREAM_CAPTURES))])
        plan.append(row)
    return StreamState(
        node_ids=[spec.node_id for spec in specs],
        positions=positions,
        truth=truth,
        plan=plan,
        swap_at=swap_at,
    )


def run_stream_live(state: StreamState, tracer=NO_TRACE) -> Outcome:
    gateway = StreamGateway(
        config=GatewayConfig(
            queue_capacity=STREAM_QUEUE_CAPACITY, policy=OverflowPolicy.BLOCK
        ),
        positions=state.positions,
    )
    speed = HostSpeed()
    drains: List[Interval] = []
    windows: List[Interval] = []
    published = 0
    refused = 0
    for k, row in enumerate(state.plan):
        base = k * STREAM_WINDOW_S
        # Records are inputs: built before the window's clock starts.
        window = [
            [SbsLineRecord(base + t, line) for t, line in lines]
            + [
                TruthBatchRecord(base + STREAM_WINDOW_S - 1e-3, state.truth),
                HeartbeatRecord(base + STREAM_WINDOW_S),
            ]
            for lines in row
        ]
        speed.idle()
        with tracer.op(f"window-{k}"):
            started = time.perf_counter()
            for node_id, records in zip(state.node_ids, window):
                for record in records:
                    if not gateway.publish(node_id, record, 0.0).accepted:
                        refused += 1
                t0 = time.perf_counter()
                gateway.drain_node(node_id)
                drains.append((t0, time.perf_counter() - t0))
            windows.append((started, time.perf_counter() - started))
        published += sum(len(node_records) for node_records in window)
    speed.sample()

    failures: List[str] = []
    sessions = gateway.sessions
    consumed = sum(s.counters.records for s in sessions.values())
    quarantined = sum(s.counters.malformed_lines for s in sessions.values())
    dropped = gateway.broker.total_dropped()
    if dropped or refused:
        failures.append(f"{dropped} records dropped, {refused} refused")
    if consumed != published - refused:
        failures.append(f"consumed {consumed} of {published} records")
    if quarantined:
        failures.append(f"{quarantined} lines quarantined")
    for node_id in state.node_ids:
        engine = sessions[node_id].engine
        if len(engine.summaries) != len(state.plan):
            failures.append(
                f"{node_id}: {len(engine.summaries)} windows, want "
                f"{len(state.plan)}"
            )
        drifted = [s.index for s in engine.summaries if s.drift is not None]
        if node_id == STREAM_SWAPPED:
            if not drifted or drifted[0] not in (
                state.swap_at, state.swap_at + 1
            ):
                failures.append(
                    f"{node_id}: drift at windows {drifted[:3]}, want "
                    f"{state.swap_at} or {state.swap_at + 1}"
                )
        elif drifted:
            failures.append(f"{node_id}: false drift at windows {drifted[:3]}")

    digest = _sha(
        [
            (
                node_id,
                [
                    (s.index, s.evidence, s.open_fraction, s.drift is not None)
                    for s in sessions[node_id].engine.summaries
                ],
                sessions[node_id].counters.as_dict(),
                serialize.assessment_to_dict(gateway.snapshot(node_id)),
            )
            for node_id in state.node_ids
        ]
    )
    counters = [s.counters for s in sessions.values()]
    sbs_lines = sum(c.sbs_lines for c in counters)
    depths = gateway.broker.stats().values()
    return Outcome(
        units=published,
        timed=windows,
        ops=drains,
        batches=windows,
        speed=speed,
        attempted=published,
        failed=dropped + refused + quarantined + len(failures),
        failures=failures,
        digest=digest,
        work={
            "records": published,
            "sbs_lines": sbs_lines,
            "truth_reports": sum(c.truth_reports for c in counters),
            "ghosts": sum(c.ghosts for c in counters),
        },
        layer={
            "stream.broker.max_depth": max(
                d["high_watermark"] for d in depths
            ),
            "adsb.sbs.malformed_ratio": (
                quarantined / (sbs_lines + quarantined) if sbs_lines else 0.0
            ),
            "stream.drift.events": sum(
                len(s.engine.drift.events) for s in sessions.values()
            ),
        },
    )


# ---------------------------------------------------------------------------
# serve: the marketplace query API

SERVE_NODES = 10_000
#: Requests between two publishes.
SERVE_BLOCK = 5_000
#: Response-cache TTL: an hour, so hits depend on the request mix and
#: never on the wall clock.
SERVE_TTL_S = 3_600.0
SERVE_PAGE = 50
#: Dashboard request mix: (kind, share).
SERVE_MIX = (
    ("nodes_page", 0.50),
    ("node_detail", 0.20),
    ("summary", 0.10),
    ("band_page", 0.10),
    ("nodes_filtered", 0.099),
    ("metrics", 0.001),
)
#: Share of repeated keys sent with ``If-None-Match``.
SERVE_REVALIDATE = 0.7
_SUMMARIES = ("/v1/fleet", "/v1/bands", "/v1/trust", "/v1/drift")
_SORTS = ("node_id", "trust", "overall", "directional", "frequency",
          "open_fraction", "decoded_messages")


@dataclass
class ServeState:
    app: Any
    #: fleets to publish, in order, one after each block of requests
    publishes: List[Tuple[Any, Any]]
    #: per block: (path, query, cache key, revalidate?) requests
    blocks: List[List[Tuple[str, Dict[str, str], str, bool]]]


def _serve_requests(
    rng: np.random.Generator, n: int, node_ids: List[str], bands: List[str]
) -> List[Tuple[str, Dict[str, str], str, bool]]:
    kinds = rng.choice(
        len(SERVE_MIX), size=n, p=[share for _, share in SERVE_MIX]
    )
    pages = -(-SERVE_NODES // SERVE_PAGE)
    out = []
    for kind in kinds:
        name = SERVE_MIX[kind][0]
        query: Dict[str, str] = {}
        if name == "nodes_page":
            path = "/v1/nodes"
            page = min(int(rng.geometric(0.08)) - 1, pages - 1)
            query = {"cursor": str(page * SERVE_PAGE), "limit": str(SERVE_PAGE)}
        elif name == "node_detail":
            index = int(len(node_ids) * rng.random() ** 3)
            path = "/v1/nodes/" + node_ids[index]
        elif name == "summary":
            path = _SUMMARIES[int(rng.integers(len(_SUMMARIES)))]
        elif name == "band_page":
            path = "/v1/bands/" + bands[int(rng.integers(len(bands)))]
            page = int(rng.geometric(0.3)) - 1
            query = {"cursor": str(page * SERVE_PAGE), "limit": str(SERVE_PAGE)}
        elif name == "nodes_filtered":
            path = "/v1/nodes"
            query = {
                "min_overall": f"{rng.random() * 0.8:.3f}",
                "sort": _SORTS[int(rng.integers(len(_SORTS)))],
                "order": ("asc", "desc")[int(rng.integers(2))],
                "limit": str(SERVE_PAGE),
            }
        else:
            path = "/v1/metrics"
        key = path + "?" + "&".join(
            f"{k}={v}" for k, v in sorted(query.items())
        )
        out.append((path, query, key, bool(rng.random() < SERVE_REVALIDATE)))
    return out


def setup_serve_mixed(seed: int, count: int) -> ServeState:
    rng = _rng(seed)
    # Two fleets over the same node ids, published alternately.
    fleets = [
        synthetic_fleet(SERVE_NODES, seed=_seed31(rng)) for _ in range(2)
    ]
    store = FleetStore()
    store.publish(fleets[0][0], fleets[0][0].failures, fleets[0][1])
    app = SpectrumApp(store, cache=ResponseCache(ttl_s=SERVE_TTL_S))
    node_ids = sorted(set(fleets[0][0]) & set(fleets[1][0]))
    bands = [label for label, _, _ in BANDS]
    blocks = [
        _serve_requests(rng, SERVE_BLOCK, node_ids, bands)
        for _ in range(count)
    ]
    publishes = [fleets[(k + 1) % 2] for k in range(count)]
    return ServeState(app=app, publishes=publishes, blocks=blocks)


def run_serve_mixed(state: ServeState, tracer=NO_TRACE) -> Outcome:
    app = state.app
    store = app.store
    speed = HostSpeed()
    handles: List[Interval] = []
    publishes: List[Interval] = []
    failures: List[str] = []
    statuses: Dict[int, int] = {}
    # key -> (ETag, generation it was served at)
    etags: Dict[str, Tuple[str, int]] = {}
    trail = hashlib.sha256()
    generation = store.current().generation
    n = 0
    for b, block in enumerate(state.blocks):
        for path, query, key, revalidate in block:
            held = etags.get(key)
            sent = held is not None and revalidate
            request = Request(
                "GET", path, query, {"if-none-match": held[0]} if sent else {}
            )
            speed.idle()
            with tracer.op(f"request-{n}"):
                started = time.perf_counter()
                response = app.handle(request)
                handles.append((started, time.perf_counter() - started))
            n += 1
            status = response.status
            statuses[status] = statuses.get(status, 0) + 1
            if response.etag is None:
                continue  # /v1/metrics: never cached
            trail.update(f"{status} {response.etag}\n".encode())
            # The two fleets alternate, so an ETag served an odd number
            # of publishes ago names the other fleet's content; an even
            # number ago it may still match (node details carry no
            # generation).
            age = generation - held[1] if held is not None else None
            if status == 304 and not (sent and age % 2 == 0):
                failures.append(f"304 without a matching ETag: {key}")
            elif status == 200 and sent and age == 0:
                failures.append(f"200 for a current ETag: {key}")
            elif age is not None and age % 2 == 1 and (
                status != 200 or response.etag == held[0]
            ):
                failures.append(f"stale answer after a publish: {key}")
            etags[key] = (response.etag, generation)
        assessments, drift = state.publishes[b]
        speed.idle()
        with tracer.op(f"publish-{b}"):
            started = time.perf_counter()
            store.publish(assessments, assessments.failures, drift)
            publishes.append((started, time.perf_counter() - started))
        generation = store.current().generation
    speed.sample()

    bad = sum(v for s, v in statuses.items() if s not in (200, 304))
    if bad:
        failures.append(f"{bad} responses other than 200/304: {statuses}")
    hits = app.metrics.count("serve_cache_hits")
    misses = app.metrics.count("serve_cache_misses")
    return Outcome(
        units=n + len(publishes),
        timed=handles + publishes,
        ops=handles,
        batches=publishes,
        speed=speed,
        attempted=n + len(publishes),
        failed=bad + len(failures),
        failures=failures[:20],
        digest=trail.hexdigest(),
        work={
            "requests": n,
            "ok": statuses.get(200, 0),
            "not_modified": statuses.get(304, 0),
            "publishes": len(publishes),
            "cache_hits": hits,
            "cache_misses": misses,
        },
        layer={"serve.cache.hit_ratio": hits / (hits + misses)},
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload's halves and how its size follows from ``--seconds``."""

    name: str
    setup: Callable[[int, int], Any]
    run: Callable[..., Outcome]
    #: rounds (campaigns, windows, request blocks) per second
    rate: float
    minimum: int

    def count(self, seconds: float) -> int:
        return max(self.minimum, round(seconds * self.rate))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet_cold", setup_fleet_cold, run_fleet_cold, 2.0, 1),
        Workload("fleet_rerun", setup_fleet_rerun, run_fleet_rerun, 12.0, 2),
        Workload("stream_live", setup_stream_live, run_stream_live, 3.5, 4),
        Workload("serve_mixed", setup_serve_mixed, run_serve_mixed, 1.0, 2),
    )
}


def run(
    name: str, seed: int, seconds: float, tracer: Optional[Tracer] = None
) -> Outcome:
    """Set up and run one workload in this process (tests use this)."""
    workload = WORKLOADS[name]
    state = workload.setup(seed, workload.count(seconds))
    if tracer is None:
        return workload.run(state)
    with tracer:
        return workload.run(state, tracer)
