"""Layer tracer: spans around the program's public functions, from outside.

The benchmark measures per-layer time without touching ``src/``: a
:class:`Tracer` patches the module attributes and class methods listed
in :data:`LAYERS` with timing wrappers, and :meth:`Tracer.uninstall`
puts every original back.

Each wrapped call opens a frame on one stack. When it returns, its
duration minus the time of the wrapped calls inside it is its *self
time*, added to its layer; its full duration is added to the frame
below. Self times therefore partition the root span's wall time: no
interval is counted twice and none is lost. Calls made outside a timed
operation (set-up, output checks) pass straight through.

Two kinds of call:

- **spans** are recorded one by one (name, start, end, parent span,
  and the campaign, window or request tag of the operation that caused
  them) and written to the trace file;
- **folded** calls happen once per record (an SBS line, a publish, a
  cache lookup, a content hash), where one span per call would cost
  more than the work. They keep the same self-time accounting but are
  stored in their enclosing span as ``name -> [count, seconds]``.

The path cache is wrapped specially: a stage's ``compute`` callback
runs under the layer that asked for the stage, so ``engines.pathcache``
keeps only the cost of keying, looking up and storing, and a miss's
computation stays with the stage that needed it. Hits and misses are
counted per stage label (``key_parts[0]``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Root span of one timed operation; its self time is harness glue.
ROOT = "bench.op"

#: ``(target, layer, folded)``; a target is ``module:function`` or
#: ``module:Class.method``.
LAYERS: Tuple[Tuple[str, str, bool], ...] = (
    # fleet: the campaign runtime
    ("repro.runtime.campaign:FleetCampaign.run", "runtime.campaign", False),
    ("repro.runtime.workers:execute_job", "runtime.workers", False),
    ("repro.runtime.jobs:CalibrationJob.content_key", "runtime.jobs", True),
    ("repro.runtime.jobs:NodeSpec.build", "runtime.jobs", True),
    # fleet: the calibration pipeline, in stage order
    ("repro.core.network:CalibrationService.evaluate_node", "core.network", False),
    ("repro.core.network:TrustEvaluator.assess", "core.network", False),
    ("repro.core.directional:DirectionalEvaluator.run", "core.directional", False),
    ("repro.batch.schedule:build_batch_squitters", "batch.schedule", False),
    ("repro.batch.geomcache:batch_rays", "batch.rays", False),
    ("repro.batch.links:batch_received_power_dbm", "batch.links", False),
    ("repro.batch.frames:position_me_bits", "batch.frames", False),
    ("repro.batch.frames:velocity_me_bits", "batch.frames", False),
    ("repro.adsb.messages:identification_me_bits", "batch.frames", True),
    ("repro.batch.frames:pack_frame_matrix", "batch.frames", False),
    ("repro.adsb.decoder:Dump1090Decoder.decode_frame_matrix", "adsb.decoder", False),
    ("repro.airspace.flightradar:FlightRadarService.query", "airspace.flightradar", False),
    ("repro.core.fov:KnnFovEstimator.estimate", "core.fov", False),
    ("repro.core.frequency:FrequencyEvaluator.run", "core.frequency", False),
    ("repro.core.classify:extract_features", "core.classify", False),
    ("repro.core.classify:classify_node", "core.classify", False),
    ("repro.core.abs_power:AbsolutePowerCalibrator.calibrate", "core.abs_power", False),
    ("repro.core.position_check:PositionVerifier.verify", "core.position_check", False),
    # the compute engines' stage cache
    ("repro.engines.pathcache:PathCache.get_or_compute", "engines.pathcache", True),
    ("repro.engines.pathcache:PathCache.get_or_compute_rng", "engines.pathcache", True),
    ("repro.engines.contentkey:content_key", "engines.contentkey", True),
    # shared by every tier
    ("repro.core.serialize:network_to_json", "core.serialize", False),
    ("repro.core.serialize:assessment_to_dict", "core.serialize", True),
    ("repro.core.metrics:MetricsRegistry.observe", "core.metrics", True),
    ("repro.core.metrics:MetricsRegistry.summary", "core.metrics", False),
    # stream: the live ingest gateway
    ("repro.stream.gateway:StreamGateway.drain_node", "stream.gateway", False),
    ("repro.stream.broker:StreamBroker.publish", "stream.broker", True),
    ("repro.stream.broker:BoundedQueue.drain", "stream.broker", False),
    ("repro.stream.session:NodeSession.handle", "stream.session", True),
    ("repro.adsb.sbs:parse_sbs", "adsb.sbs", True),
    ("repro.environment.links:ray_geometry", "environment.links", True),
    ("repro.stream.engine:OnlineCalibrationEngine.advance", "stream.engine", True),
    ("repro.stream.engine:OnlineCalibrationEngine.add_observation", "stream.engine", True),
    ("repro.stream.online:SlidingWindow.add_observation", "stream.online", True),
    ("repro.stream.online:SlidingWindow.add_ghost", "stream.online", True),
    ("repro.stream.online:SlidingWindow.evict_until", "stream.online", True),
    ("repro.stream.online:OnlineSectorStats.estimate", "stream.online", True),
    ("repro.stream.drift:DriftDetector.check", "stream.drift", False),
    # serve: the query API
    ("repro.serve.app:SpectrumApp.handle", "serve.app", False),
    ("repro.serve.cache:ResponseCache.lookup", "serve.cache", True),
    ("repro.serve.cache:ResponseCache.store", "serve.cache", True),
    ("repro.serve.store:FleetSnapshot.page_nodes", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.node_detail", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.page_trust", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.page_band_power", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.band_summary", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.fleet_summary", "serve.store", False),
    ("repro.serve.store:FleetSnapshot.drift_rows", "serve.store", False),
    ("repro.serve.store:FleetStore.publish", "serve.store.publish", False),
    ("repro.serve.columns:FleetColumns.build", "serve.columns", False),
    ("repro.serve.columns:FleetColumns.content_hash", "serve.columns", False),
)

#: Every layer name, root first, in table order.
LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([ROOT] + [layer for _, layer, _ in LAYERS])
)

#: The path cache's stage labels (``key_parts[0]`` at each call site).
PATH_CACHE_STAGES = (
    "batch_schedule",
    "batch_rays",
    "batch_rx_power",
    "batch_decode",
    "ground_truth_query",
    "finalize_geometry",
    "knn_fov",
    "frequency_profile",
    "capture_groups",
    "clear_sectors",
)

#: Work counted from results as they pass through a wrapper.
_COUNTERS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "repro.batch.schedule:build_batch_squitters": lambda r: {
        "batch.schedule.squitters": r.n
    },
    "repro.batch.frames:pack_frame_matrix": lambda r: {
        "batch.frames.frames": int(r[1].size)
    },
    "repro.adsb.decoder:Dump1090Decoder.decode_frame_matrix": lambda r: {
        "adsb.decoder.decoded": int(r.decoded.sum())
    },
}


def _resolve(target: str) -> Tuple[Any, Optional[type], str]:
    """``(module, class or None, attribute)`` for a table target."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return module, getattr(module, cls_name), attr
    return module, None, path


def _repro_modules() -> List[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Collects spans and per-layer self time for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, tag, {folded: [n, s]}]``
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: The current operation's id; recorded on every span.
        self.tag: Any = None
        # frames: [child seconds, layer name]
        self._stack: List[list] = []
        self._open: List[int] = []
        # (module or class, attr, original, replacement)
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # -- accounting ------------------------------------------------------

    def _call(
        self,
        name: str,
        folded: bool,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        counted: bool = True,
    ) -> Any:
        stack = self._stack
        if not stack:
            # Outside every timed operation (set-up, output checks).
            return fn(*args, **kwargs)
        frame = [0.0, name]
        stack.append(frame)
        if not folded:
            span = [name, 0.0, 0.0, self._open[-1], self.tag, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            stack.pop()
            stack[-1][0] += duration
            self.self_s[name] += duration - frame[0]
            if counted:
                self.calls[name] += 1
            if folded:
                agg = self.spans[self._open[-1]][5].setdefault(
                    name, [0, 0.0]
                )
                agg[0] += 1
                agg[1] += duration
            else:
                span[1] = start
                span[2] = end
                self._open.pop()

    def op(self, tag: Any) -> "_Op":
        """Context manager for one timed operation (the root span)."""
        return _Op(self, tag)

    # -- patching --------------------------------------------------------

    def _wrapper(
        self, target: str, layer: str, folded: bool, fn: Callable
    ) -> Callable:
        call = self._call
        counter = _COUNTERS.get(target)
        if layer == "engines.pathcache":
            return self._path_cache_wrapper(fn)
        if counter is not None:
            counts = self.counts
            stack = self._stack

            def counting(*args, **kwargs):
                inside = bool(stack)
                result = call(layer, folded, fn, args, kwargs)
                if inside:
                    for key, n in counter(result).items():
                        counts[key] += n
                return result

            return counting

        def wrapper(*args, **kwargs):
            return call(layer, folded, fn, args, kwargs)

        return wrapper

    def _path_cache_wrapper(self, fn: Callable) -> Callable:
        """Time the cache machinery; give ``compute`` back to its owner."""
        tracer = self

        def wrapper(cache, key_parts, *rest):
            stack = tracer._stack
            if not stack:
                return fn(cache, key_parts, *rest)
            owner = stack[-1][1]
            compute = rest[-1]
            missed = []

            def traced_compute():
                missed.append(True)
                return tracer._call(
                    owner, True, compute, (), {}, counted=False
                )

            result = tracer._call(
                "engines.pathcache",
                True,
                fn,
                (cache, key_parts) + rest[:-1] + (traced_compute,),
                {},
            )
            outcome = "misses" if missed else "hits"
            tracer.counts[f"engines.pathcache.{key_parts[0]}.{outcome}"] += 1
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Patch every target in :data:`LAYERS`; returns self."""
        for target, layer, folded in LAYERS:
            module, cls, attr = _resolve(target)
            if cls is not None:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(
                        self._wrapper(target, layer, folded, raw.__func__)
                    )
                elif inspect.isfunction(raw):
                    new = self._wrapper(target, layer, folded, raw)
                else:
                    raise TypeError(f"cannot wrap {target}: {raw!r}")
                setattr(cls, attr, new)
                self._patches.append((cls, attr, raw, new))
                continue
            original = getattr(module, attr)
            new = self._wrapper(target, layer, folded, original)
            # `from x import f` copies the binding: patch every module
            # that holds the function, not only the defining one.
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, new)
                        self._patches.append((mod, name, original, new))
        return self

    def uninstall(self) -> None:
        """Restore every original, including bindings made since install."""
        originals = {id(new): orig for _, _, orig, new in self._patches}
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        # Modules imported while tracing copied wrapped functions.
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, name, originals[id(value)])
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def wall_s(self) -> float:
        """Summed duration of the root spans (the traced timed wall)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == ROOT)

    def summary(self) -> Dict[str, Any]:
        """Per-layer self time, calls and counts, plus the total wall."""
        wall = self.wall_s()
        layers = {}
        for name in LAYER_NAMES:
            self_s = self.self_s.get(name, 0.0)
            layers[name] = {
                "self_s": self_s,
                "self_pct": 100.0 * self_s / wall if wall else 0.0,
                "calls": self.calls.get(name, 0),
            }
        return {
            "wall_s": wall,
            "layers": layers,
            "counts": dict(sorted(self.counts.items())),
            "spans": len(self.spans),
        }

    def write(self, path: Path, summary: Dict[str, Any]) -> None:
        """Dump the summary and every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "tag", "folded")
        payload = {
            "summary": summary,
            "span_fields": fields,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _Op:
    """The root span of one timed operation (operations never nest)."""

    __slots__ = ("tracer", "tag")

    def __init__(self, tracer: Tracer, tag: Any) -> None:
        self.tracer = tracer
        self.tag = tag

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.tag = self.tag
        tracer._stack.append([0.0, ROOT])
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(
            [ROOT, time.perf_counter(), 0.0, None, self.tag, {}]
        )

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = time.perf_counter()
        frame = tracer._stack.pop()
        span = tracer.spans[tracer._open.pop()]
        span[2] = end
        tracer.self_s[ROOT] += (end - span[1]) - frame[0]
        tracer.calls[ROOT] += 1
        tracer.tag = None
