"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``calibrate --location {rooftop,window,indoor}`` — run the full
  automatic-calibration pipeline on a node at one of the testbed
  locations and print the report (``--json FILE`` writes the full
  machine-readable report; ``--traffic dense-urban`` runs it under a
  congested airspace).
- ``interference [--densities N,N,...]`` — sweep traffic density
  through the shared-medium collision model and print how collision
  rate degrades decodes, FoV agreement and trust (§3.1 under
  congestion).
- ``figure {1,2,3,4,fm}`` — regenerate one of the paper's figures as
  a terminal table.
- ``trust`` — run the fabrication-detection experiment.
- ``fleet [--workers N] [--cache-dir DIR] [--max-jobs N]`` —
  calibrate the 12-node fleet through the :mod:`repro.runtime`
  campaign machinery (parallel workers, result cache) and
  print the marketplace. A run stopped early resumes when rerun on
  the same ``--cache-dir``.
- ``schedule --windows N`` — compare measurement-scheduling
  strategies for a daily budget.
- ``stream --source {replay,sim}`` — run the live ingest gateway:
  sliding-window calibration over a replayed or simulated record
  stream, with drift detection and re-calibration requests
  (``--window``, ``--drift-threshold``, ``--swap-to`` for the drift
  scenario).
- ``serve [--source {synthetic,fleet,file}] [--port P]`` — the
  spectrum-data query API: an asyncio HTTP/JSON gateway over a fleet
  snapshot (node assessments, FoV maps, trust, drift, band power)
  with ETag/TTL caching and cursor pagination.
- ``lint [PATH ...]`` — the domain-aware static analyzer (unit
  suffixes, determinism, lock hygiene, interface hygiene); all
  arguments are forwarded to :mod:`repro.lint`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.network import CalibrationService
from repro.core.serialize import SHAPE_ERRORS, report_to_json
from repro.experiments import (
    crosscheck_exp,
    figure1,
    figure2,
    figure3,
    figure4,
    fleet,
    fm_extension,
    scheduling,
    trust,
)
from repro.airspace.traffic import TRAFFIC_PRESETS
from repro.experiments.common import LOCATIONS, build_world
from repro.node.sensor import SensorNode


def _add_path_cache_arg(sub: argparse.ArgumentParser) -> None:
    """The stage-reuse flag shared by calibrate and fleet."""
    sub.add_argument(
        "--path-cache",
        choices=["on", "off"],
        default="on",
        help="reuse content-keyed stage results across captures and "
        "runs (bit-identical; default: on)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Automatic calibration of crowd-sourced spectrum sensors "
            "(HotNets '23 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    calibrate = sub.add_parser(
        "calibrate", help="calibrate one node end to end"
    )
    calibrate.add_argument(
        "--location",
        choices=LOCATIONS,
        default="window",
        help="testbed installation to evaluate",
    )
    calibrate.add_argument(
        "--seed", type=int, default=1, help="simulation seed"
    )
    calibrate.add_argument(
        "--json",
        metavar="FILE",
        help="also write the machine-readable report to FILE",
    )
    calibrate.add_argument(
        "--traffic",
        choices=sorted(TRAFFIC_PRESETS),
        default="default",
        help="traffic-density preset the airspace is populated with",
    )
    _add_path_cache_arg(calibrate)

    interference = sub.add_parser(
        "interference",
        help=(
            "sweep traffic density through the 1090 MHz collision "
            "model (SINR + capture effect)"
        ),
    )
    interference.add_argument(
        "--location", choices=LOCATIONS, default="rooftop",
        help="testbed installation to evaluate",
    )
    interference.add_argument(
        "--seed", type=int, default=1, help="simulation seed"
    )
    interference.add_argument(
        "--densities", metavar="N,N,...",
        help="comma-separated aircraft counts to sweep "
        "(default: 60,120,240,480)",
    )
    interference.add_argument(
        "--duration", type=float, default=30.0,
        help="capture length per run in seconds",
    )

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure"
    )
    figure.add_argument(
        "which", choices=["1", "2", "3", "4", "fm"],
        help="figure number (fm = the FM extension)",
    )
    figure.add_argument("--seed", type=int, default=1)

    sub.add_parser("trust", help="run the fabrication-detection experiment")

    fleet_cmd = sub.add_parser(
        "fleet",
        help=(
            "calibrate a 12-node fleet through the parallel runtime "
            "and print the marketplace"
        ),
    )
    fleet_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker threads (1 = serial, bit-identical to seed)",
    )
    fleet_cmd.add_argument(
        "--seed", type=int, default=95, help="campaign base seed"
    )
    fleet_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache; unchanged nodes skip "
        "recomputation on re-runs",
    )
    fleet_cmd.add_argument(
        "--max-jobs", type=int, metavar="N",
        help="stop after N jobs (simulates a partial run; combine "
        "with --cache-dir, and a rerun on that directory resumes)",
    )
    fleet_cmd.add_argument(
        "--fail-node", metavar="NODE_ID",
        help="inject a crash fault into one node to exercise "
        "partial-failure handling",
    )
    fleet_cmd.add_argument(
        "--json", metavar="FILE",
        help="write the full network evaluation (assessments + "
        "failures + campaign metrics) as JSON; `repro serve "
        "--source file` loads it",
    )
    _add_path_cache_arg(fleet_cmd)
    sub.add_parser(
        "crosscheck",
        help="tracker-free peer cross-validation of five nodes",
    )

    schedule = sub.add_parser(
        "schedule", help="compare measurement schedules"
    )
    schedule.add_argument(
        "--windows", type=int, default=4,
        help="measurement windows per day",
    )

    ingest = sub.add_parser(
        "ingest",
        help=(
            "evaluate a real dump1090 SBS feed against an archived "
            "flight-tracker report"
        ),
    )
    ingest.add_argument(
        "--sbs", required=True, metavar="FILE",
        help="SBS-1 (BaseStation, port 30003) capture file",
    )
    ingest.add_argument(
        "--tracker", required=True, metavar="FILE",
        help="flight-tracker report JSON (see flight_reports_to_json)",
    )
    ingest.add_argument("--lat", type=float, required=True)
    ingest.add_argument("--lon", type=float, required=True)
    ingest.add_argument("--alt", type=float, default=0.0)

    stream = sub.add_parser(
        "stream",
        help=(
            "run the live ingest gateway: sliding-window "
            "calibration with drift detection"
        ),
    )
    stream.add_argument(
        "--source", choices=["replay", "sim"], default="sim",
        help="replay a recorded scan, or simulate a live node "
        "window by window",
    )
    stream.add_argument(
        "--location", choices=LOCATIONS, default="rooftop",
        help="testbed installation the node streams from",
    )
    stream.add_argument(
        "--scan", metavar="FILE",
        help="recorded scan JSON to replay (replay source; default: "
        "simulate one fresh scan first)",
    )
    stream.add_argument(
        "--windows", type=int, default=4,
        help="measurement windows to stream (sim source)",
    )
    stream.add_argument(
        "--window", type=float, default=30.0,
        help="calibration window length in stream seconds",
    )
    stream.add_argument(
        "--drift-threshold", type=float, default=0.30,
        help="sector-disagreement fraction that triggers "
        "re-calibration",
    )
    stream.add_argument(
        "--swap-to", choices=LOCATIONS, metavar="LOCATION",
        help="sim: move the node to this location mid-stream (the "
        "drift scenario)",
    )
    stream.add_argument(
        "--swap-at", type=int, metavar="K",
        help="sim: window index the swap happens at (default: "
        "halfway)",
    )
    stream.add_argument(
        "--queue-capacity", type=int, default=1024,
        help="per-node broker queue bound",
    )
    stream.add_argument(
        "--policy", choices=["block", "drop-oldest", "reject"],
        default="block", help="broker overflow policy",
    )
    stream.add_argument(
        "--seed", type=int, default=11, help="simulation seed"
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "serve the fleet query API (assessments, FoV, trust, "
            "drift, band power) over HTTP"
        ),
    )
    serve.add_argument(
        "--source", choices=["synthetic", "fleet", "file"],
        default="synthetic",
        help="fleet to serve: a synthetic N-node fleet, the "
        "12-node testbed fleet (calibrated first), or a "
        "`repro fleet --json` dump",
    )
    serve.add_argument(
        "--nodes", type=int, default=1000,
        help="synthetic fleet size",
    )
    serve.add_argument(
        "--file", metavar="FILE",
        help="network-evaluation JSON to serve (--source file)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listen port (0 = pick a free port)",
    )
    serve.add_argument(
        "--ttl", type=float, default=5.0,
        help="response-cache TTL in seconds",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=64,
        help="in-flight request bound",
    )
    serve.add_argument(
        "--max-requests", type=int, metavar="N",
        help="stop after serving N requests (smoke tests, demos)",
    )
    serve.add_argument(
        "--port-file", metavar="FILE",
        help="write the bound 'host port' to FILE once listening",
    )
    serve.add_argument(
        "--seed", type=int, default=7,
        help="synthetic-fleet / fleet-calibration seed",
    )

    # The lint tool owns its own argparse; forward everything so
    # `repro lint --help` shows the analyzer's options, not ours.
    lint = sub.add_parser(
        "lint",
        add_help=False,
        help=(
            "run the domain-aware static analyzer (units, "
            "determinism, concurrency, interfaces)"
        ),
    )
    lint.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.engines import configure_path_cache

    configure_path_cache(enabled=args.path_cache == "on")
    world = build_world(traffic_preset=args.traffic)
    service = CalibrationService(
        traffic=world.traffic,
        ground_truth=world.ground_truth,
        cell_towers=world.testbed.cell_towers,
        tv_towers=world.testbed.tv_towers,
        fm_towers=world.testbed.fm_towers,
    )
    node = SensorNode(
        f"{args.location}-node", world.testbed.site(args.location)
    )
    assessment = service.evaluate_node(node, seed=args.seed)
    print(assessment.report.render_text())
    print()
    print("Per-sector/per-band usability (renter's view):")
    print(assessment.report.render_usability())
    print()
    print(f"Trust score: {assessment.trust.trust_score():.2f}")
    for check in assessment.trust.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    if assessment.claim_violations:
        print("Claim violations:")
        for violation in assessment.claim_violations:
            print(f"  - {violation.claim}: {violation.evidence}")
    if args.json:
        with open(args.json, "w") as f:
            f.write(report_to_json(assessment.report, indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    from repro.experiments import interference_exp

    if args.duration <= 0.0:
        print("--duration must be positive", file=sys.stderr)
        return 2
    if args.densities is not None:
        try:
            densities = [
                int(part) for part in args.densities.split(",") if part
            ]
        except ValueError:
            print(
                "--densities must be comma-separated integers",
                file=sys.stderr,
            )
            return 2
        if not densities or any(d <= 0 for d in densities):
            print(
                "--densities needs at least one positive count",
                file=sys.stderr,
            )
            return 2
    else:
        densities = list(interference_exp.DEFAULT_DENSITIES)
    points = interference_exp.run_density_sweep(
        densities=densities,
        location=args.location,
        seed=args.seed,
        duration_s=args.duration,
    )
    print(interference_exp.format_rows(points))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    world = build_world()
    if args.which == "1":
        panels = figure1.run_figure1(world=world, seed=args.seed)
        print(figure1.format_summary(panels))
        for panel in panels:
            print()
            print(figure1.render_ascii_polar(panel))
    elif args.which == "2":
        print(figure2.format_layout(figure2.run_figure2(world.testbed)))
    elif args.which == "3":
        print(figure3.format_bars(figure3.run_figure3(world=world)))
    elif args.which == "4":
        print(figure4.format_bars(figure4.run_figure4(world=world)))
    else:
        print(
            fm_extension.format_bars(
                fm_extension.run_fm_extension(world=world)
            )
        )
    return 0


def _cmd_trust(_args: argparse.Namespace) -> int:
    world = build_world()
    print(trust.format_rows(trust.run_trust_experiment(world=world)))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(
            f"--workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.max_jobs is not None and args.max_jobs < 0:
        print(
            f"--max-jobs must be >= 0, got {args.max_jobs}",
            file=sys.stderr,
        )
        return 2
    if args.fail_node is not None:
        from repro.runtime.campaign import standard_fleet_specs

        known = [s.node_id for s in standard_fleet_specs()]
        if args.fail_node not in known:
            print(
                f"--fail-node: unknown node {args.fail_node!r}"
                f" (fleet nodes: {', '.join(known)})",
                file=sys.stderr,
            )
            return 2
    from repro.engines import configure_path_cache

    configure_path_cache(enabled=args.path_cache == "on")
    world = build_world()
    result = fleet.run_fleet(
        world=world,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_jobs=args.max_jobs,
        fail_node=args.fail_node,
    )
    print(fleet.format_marketplace(result))
    print()
    print(result.campaign.summary_text())
    deferred = result.campaign.metrics["jobs_deferred"]
    if deferred:
        print(
            f"  deferred: {deferred} job(s) not run (--max-jobs);"
            " the fleet is incomplete"
        )
    if args.json:
        from repro.core.serialize import network_to_json

        with open(args.json, "w") as f:
            f.write(network_to_json(result.campaign.network(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_crosscheck(_args: argparse.Namespace) -> int:
    world = build_world()
    print(
        crosscheck_exp.format_rows(
            crosscheck_exp.run_crosscheck_experiment(world=world)
        )
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.windows <= 0:
        print("--windows must be positive", file=sys.stderr)
        return 2
    rows = scheduling.run_scheduling(
        budgets=list(range(1, args.windows + 1))
    )
    print(scheduling.format_rows(rows))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core.fov import KnnFovEstimator
    from repro.core.ingest import (
        flight_reports_from_json,
        scan_from_sbs,
    )
    from repro.core.network import TrustEvaluator
    from repro.geo.coords import GeoPoint

    try:
        with open(args.sbs) as f:
            lines = f.readlines()
    except OSError as exc:
        return _cannot_read(args.sbs, exc)
    except UnicodeDecodeError as exc:
        return _not_a_record(args.sbs, "SBS", exc)
    try:
        with open(args.tracker) as f:
            reports = flight_reports_from_json(f.read())
    except OSError as exc:
        return _cannot_read(args.tracker, exc)
    except SHAPE_ERRORS as exc:
        return _not_a_record(args.tracker, "tracker", exc)
    receiver = GeoPoint(args.lat, args.lon, args.alt)
    scan = scan_from_sbs(
        lines, reports, node_id="ingested", receiver_position=receiver
    )
    print(
        f"{len(scan.received)}/{len(scan.observations)} tracked "
        f"aircraft received ({scan.decoded_message_count} messages, "
        f"{len(scan.ghost_icaos)} ghosts)"
    )
    fov = KnnFovEstimator().estimate(scan)
    sectors = ", ".join(
        f"{s.start_deg:.0f}-{s.end_deg:.0f} deg"
        for s in fov.open_sectors()
    ) or "none"
    print(
        f"Estimated field of view: {fov.open_fraction():.0%} open "
        f"[{sectors}]"
    )
    assessment = TrustEvaluator().assess(scan)
    for check in assessment.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    return 0


def _cannot_read(path: str, exc: OSError) -> int:
    """Report an input file that cannot be opened or read on one line;
    the exit status."""
    print(f"{path}: cannot read: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _not_a_record(path: str, kind: str, exc: Exception) -> int:
    """Report a malformed record file on one line; the exit status.

    ``exc`` is one of ``SHAPE_ERRORS``, which covers undecodable JSON
    (``json.JSONDecodeError`` is a ``ValueError``).
    """
    print(
        f"{path}: not a {kind} record: {type(exc).__name__}: {exc}",
        file=sys.stderr,
    )
    return 2


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.core.directional import DirectionalEvaluator
    from repro.core.serialize import scan_from_dict
    from repro.stream import (
        EngineConfig,
        GatewayConfig,
        OverflowPolicy,
        ReplaySource,
        SimulatedNodeSource,
        StreamGateway,
    )

    if args.window <= 0.0:
        print("--window must be positive", file=sys.stderr)
        return 2
    if not 0.0 < args.drift_threshold <= 1.0:
        print("--drift-threshold must be in (0, 1]", file=sys.stderr)
        return 2
    if args.windows < 1:
        print("--windows must be >= 1", file=sys.stderr)
        return 2
    if args.swap_at is not None and args.swap_to is None:
        print("--swap-at requires --swap-to", file=sys.stderr)
        return 2

    node_id = f"{args.location}-stream"
    window_s = args.window
    if args.source == "replay" and args.scan:
        try:
            with open(args.scan) as f:
                data = json.load(f)
            # Accept either a bare scan dict or a full calibration
            # report (``repro calibrate --json``), which nests the scan.
            scan = scan_from_dict(data.get("scan", data))
        except OSError as exc:
            return _cannot_read(args.scan, exc)
        except SHAPE_ERRORS as exc:
            return _not_a_record(args.scan, "scan", exc)
        node_id = scan.node_id
        # Window boundaries must match the recording.
        window_s = scan.duration_s
        records = ReplaySource(scan=scan).records()
    else:
        world = build_world()

        def evaluator(location: str) -> DirectionalEvaluator:
            return DirectionalEvaluator(
                node=SensorNode(node_id, world.testbed.site(location)),
                traffic=world.traffic,
                ground_truth=world.ground_truth,
                duration_s=window_s,
                ground_truth_query_s=window_s / 2.0,
            )

        if args.source == "replay":
            import numpy as np

            scan = evaluator(args.location).run(
                np.random.default_rng(args.seed)
            )
            records = ReplaySource(scan=scan).records()
        else:
            swap_at = None
            swap_evaluator = None
            if args.swap_to is not None:
                swap_at = (
                    args.swap_at
                    if args.swap_at is not None
                    else args.windows // 2
                )
                if not 0 < swap_at < args.windows:
                    print(
                        f"--swap-at must be in (0, {args.windows})",
                        file=sys.stderr,
                    )
                    return 2
                swap_evaluator = evaluator(args.swap_to)
            records = SimulatedNodeSource(
                evaluator=evaluator(args.location),
                n_windows=args.windows,
                seed=args.seed,
                swap_at=swap_at,
                swap_evaluator=swap_evaluator,
            ).records()

    engine = EngineConfig(
        window_s=window_s, drift_threshold=args.drift_threshold
    )
    gateway = StreamGateway(
        config=GatewayConfig(
            engine=engine,
            queue_capacity=args.queue_capacity,
            policy=OverflowPolicy(args.policy),
        )
    )
    for i, record in enumerate(records):
        gateway.publish(node_id, record, timeout_s=0.0)
        if (i + 1) % 256 == 0:
            gateway.drain_node(node_id)
    gateway.flush()

    session = gateway.sessions[node_id]
    print(f"streamed {session.counters.records} records for {node_id}")
    for summary in session.engine.summaries:
        drift = " DRIFT" if summary.drift is not None else ""
        print(
            f"  window {summary.index:>2} (t={summary.end_s:6.1f} s): "
            f"{summary.evidence:>3} obs, "
            f"{summary.open_fraction:5.1%} open{drift}"
        )
    for event in gateway.drift_events():
        hours = ", ".join(
            f"{h:.1f}h" for h in event.request.schedule.hours
        )
        print(
            f"drift at t={event.detected_at_s:.0f} s: "
            f"{event.request.reason}"
        )
        print(f"  re-calibration requested at hours: {hours}")
    snapshot = gateway.snapshot(node_id)
    print()
    print(
        f"Final field of view: "
        f"{snapshot.report.fov.open_fraction():.0%} open; "
        f"trust score {snapshot.trust.trust_score():.2f}"
    )
    for check in snapshot.trust.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    print()
    print(gateway.summary_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        FleetSnapshot,
        FleetStore,
        ResponseCache,
        SpectrumApp,
        SpectrumServer,
        store_from_json,
        store_from_network,
        synthetic_fleet,
    )

    if args.source == "file" and not args.file:
        print("--source file requires --file", file=sys.stderr)
        return 2
    if args.nodes < 0:
        print("--nodes must be >= 0", file=sys.stderr)
        return 2
    if args.ttl <= 0.0:
        print("--ttl must be positive", file=sys.stderr)
        return 2
    if args.max_requests is not None and args.max_requests < 1:
        print("--max-requests must be >= 1", file=sys.stderr)
        return 2

    if args.source == "file":
        try:
            store = store_from_json(args.file)
        except OSError as exc:
            return _cannot_read(args.file, exc)
        except SHAPE_ERRORS as exc:
            return _not_a_record(args.file, "network", exc)
    elif args.source == "fleet":
        result = fleet.run_fleet(world=build_world(), seed=args.seed)
        store = store_from_network(result.campaign.network())
    else:
        network, drift = synthetic_fleet(args.nodes, seed=args.seed)
        store = FleetStore(
            snapshot=FleetSnapshot(
                network,
                failures=network.failures,
                drift=drift,
                generation=1,
            )
        )

    app = SpectrumApp(store, cache=ResponseCache(ttl_s=args.ttl))
    server = SpectrumServer(
        app,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_requests=args.max_requests,
    )

    async def _serve() -> int:
        host, port = await server.start()
        snapshot = store.current()
        print(
            f"serving {snapshot.n_nodes} nodes "
            f"(generation {snapshot.generation}, "
            f"{len(snapshot.failures)} failures) "
            f"on http://{host}:{port}"
        )
        if args.port_file:
            with open(args.port_file, "w") as f:
                f.write(f"{host} {port}\n")
        served = await server.serve_until_stopped()
        print(f"served {served} request(s)")
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted")
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Hand the full tail to the analyzer's own parser:
        # argparse.REMAINDER drops leading options (`lint
        # --list-rules`), so the dispatch happens before argparse.
        from repro.lint import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    handlers = {
        "calibrate": _cmd_calibrate,
        "interference": _cmd_interference,
        "figure": _cmd_figure,
        "trust": _cmd_trust,
        "fleet": _cmd_fleet,
        "crosscheck": _cmd_crosscheck,
        "schedule": _cmd_schedule,
        "ingest": _cmd_ingest,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
