"""Command-line interface: ``python -m repro <command>``.

Exposes the full workflow without writing Python:

* ``generate-network`` — build a calibrated synthetic map, save as JSON;
* ``stats``            — print a network's Table-I-style statistics;
* ``simulate``         — generate mobility traces on a saved network;
* ``cluster``          — run base-/flow-/opt-NEAT over saved traces
  (``--state-dir`` makes the run crash-safe and resumable; add
  ``--batch-size`` for journaled streaming ingest; ``--obs-port``
  serves ``/metrics`` during the run, ``--trace-out``/``--folded-out``
  export the timeline, ``--profile-hz`` samples stacks);
* ``serve``            — run a :class:`NeatService` with its HTTP
  observability plane (``/metrics /health /statusz /tracez``);
* ``recover``          — restore clustering state from a ``--state-dir``;
* ``experiment``       — regenerate one of the paper's tables/figures;
* ``tune``             — the auto-tuning harness: ``tune passport``
  (per-dataset sanity statistics + summary CSV), ``tune sweep`` (grid
  sweep over a committed ``tune_grid.yaml``, electing a ``best_config``
  per network) and ``tune reproduce`` (byte-identical replay of a
  committed winner), all over the named small/medium/stress workload
  ladder (``--profile``); see ``docs/tuning.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.config import NEATConfig
from .core.pipeline import MODES, NEAT
from .core.serialize import result_to_dict
from .mobisim.io import load_dataset, save_dataset
from .obs import Telemetry, configure_logging, get_logger
from .mobisim.simulator import SimulationConfig, simulate_dataset
from .roadnet.generators import REGION_PRESETS
from .roadnet.io import load_network, save_network
from .roadnet.stats import format_table1, network_stats

EXPERIMENTS = (
    "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
    "variant", "all",
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NEAT road-network-aware trajectory clustering (ICDCS 2012 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        default="WARNING",
        help="structured-log threshold (default WARNING; logs go to stderr)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines instead of key=value text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-network", help="build a synthetic road network")
    gen.add_argument("--region", choices=sorted(REGION_PRESETS), default="ATL")
    gen.add_argument("--scale", type=float, default=0.1,
                     help="fraction of the paper's map size (default 0.1)")
    gen.add_argument("--seed", type=int, default=71)
    gen.add_argument("--out", required=True, type=Path, help="output JSON path")

    stats = sub.add_parser("stats", help="print Table-I statistics of a network")
    stats.add_argument("network", type=Path, help="network JSON file")

    sim = sub.add_parser("simulate", help="generate mobility traces")
    sim.add_argument("--network", required=True, type=Path)
    sim.add_argument("--objects", type=int, default=500)
    sim.add_argument("--interval", type=float, default=5.0,
                     help="sampling interval in seconds")
    sim.add_argument("--hotspots", type=int, default=2)
    sim.add_argument("--destinations", type=int, default=3)
    sim.add_argument("--seed", type=int, default=23)
    sim.add_argument("--name", default=None, help="dataset name")
    sim.add_argument("--out", required=True, type=Path)

    cluster = sub.add_parser("cluster", help="run NEAT over saved traces")
    cluster.add_argument("--network", required=True, type=Path)
    cluster.add_argument("--traces", required=True, type=Path)
    cluster.add_argument("--mode", choices=MODES, default="opt")
    cluster.add_argument("--eps", type=float, default=1000.0,
                         help="Phase 3 distance threshold in metres")
    cluster.add_argument("--min-card", type=int, default=None,
                         help="minCard (default: mean flow cardinality)")
    cluster.add_argument("--wq", type=float, default=1.0 / 3.0)
    cluster.add_argument("--wk", type=float, default=1.0 / 3.0)
    cluster.add_argument("--wv", type=float, default=1.0 / 3.0)
    cluster.add_argument("--no-elb", action="store_true",
                         help="disable Euclidean-lower-bound pruning")
    cluster.add_argument("--workers", type=int, default=None,
                         help="worker processes for Phase 3's grouped "
                              "searches (default: one per available CPU; "
                              "1 = serial; results are identical at any "
                              "setting)")
    cluster.add_argument("--vector-backend",
                         choices=("auto", "numpy", "python"),
                         default="auto",
                         help="batched bound-kernel implementation: numpy "
                              "when importable (auto, the default), numpy "
                              "required, or the stdlib loops; output is "
                              "byte-identical either way")
    cluster.add_argument("--llb", action="store_true",
                         help="enable the landmark lower-bound prune tier "
                              "above the ELB (never changes clusters)")
    cluster.add_argument("--llb-landmarks", type=int, default=8,
                         help="landmark count for the LLB tier (default 8)")
    cluster.add_argument("--max-retries", type=int, default=2,
                         help="retries for fallible service-tier operations "
                              "(ingest/refresh/shard dispatch; 0 = try once)")
    cluster.add_argument("--deadline-s", type=float, default=None,
                         help="per-call time budget in seconds for service "
                              "submit/query operations (default: none)")
    cluster.add_argument("--max-pending", type=int, default=64,
                         help="bound on the service's pending-batch queue "
                              "before ServiceOverloaded rejections")
    cluster.add_argument("--svg", type=Path, default=None,
                         help="render flows/clusters to this SVG")
    cluster.add_argument("--json", action="store_true",
                         help="print the machine-readable result document "
                              "(core.serialize schema) instead of the "
                              "human summary")
    cluster.add_argument("--metrics-out", type=Path, default=None,
                         help="write the run's telemetry snapshot "
                              "(trace spans + metrics) to this JSON file")
    cluster.add_argument("--state-dir", type=Path, default=None,
                         help="crash-safe state directory: one-shot runs "
                              "checkpoint after every completed phase and "
                              "resume from the furthest match; with "
                              "--batch-size, batches are journaled and "
                              "ingestion resumes where it was killed")
    cluster.add_argument("--checkpoint-every", type=int, default=0,
                         help="snapshot cadence in batches for streaming "
                              "ingest (0 = journal only, snapshot at end)")
    cluster.add_argument("--batch-size", type=int, default=None,
                         help="stream the traces through IncrementalNEAT "
                              "in batches of this size instead of one "
                              "pipeline run")
    cluster.add_argument("--obs-port", type=int, default=None,
                         help="serve the HTTP observability plane "
                              "(/metrics /health /statusz /tracez) on this "
                              "port for the duration of the run (0 = "
                              "ephemeral; the URL is printed to stderr)")
    cluster.add_argument("--trace-out", type=Path, default=None,
                         help="write the run's span timeline as Chrome "
                              "trace-event JSON (open in Perfetto / "
                              "chrome://tracing)")
    cluster.add_argument("--folded-out", type=Path, default=None,
                         help="write the run's span timeline as folded "
                              "flamegraph stacks (flamegraph.pl input)")
    cluster.add_argument("--profile-hz", type=float, default=0.0,
                         help="sample Python stacks at this rate during "
                              "the run (0 = profiler off, the default)")
    cluster.add_argument("--profile-out", type=Path, default=None,
                         help="write sampled stacks as folded text "
                              "(requires --profile-hz > 0)")
    cluster.add_argument("--config", type=Path, default=None,
                         dest="config_file",
                         help="load the NEATConfig from a JSON document "
                              "(a tune best_config file or a bare config "
                              "mapping); the individual knob flags are "
                              "ignored when given")

    serve = sub.add_parser(
        "serve",
        help="run a NEAT service with its HTTP observability plane",
    )
    serve.add_argument("--network", required=True, type=Path)
    serve.add_argument("--traces", type=Path, default=None,
                       help="optional traces to ingest on startup")
    serve.add_argument("--batch-size", type=int, default=100,
                       help="ingest batch size for --traces (default 100)")
    serve.add_argument("--eps", type=float, default=1000.0,
                       help="Phase 3 distance threshold in metres")
    serve.add_argument("--min-card", type=int, default=None,
                       help="minCard (default: mean flow cardinality)")
    serve.add_argument("--obs-port", type=int, default=0,
                       help="observability-plane port (default 0 = "
                            "ephemeral; printed, and written to "
                            "--port-file when given)")
    serve.add_argument("--obs-host", default="127.0.0.1",
                       help="observability-plane bind address "
                            "(default loopback)")
    serve.add_argument("--port-file", type=Path, default=None,
                       help="write the bound obs port to this file once "
                            "listening (supervisors/tests read it back)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds after ingest "
                            "then exit (default: until interrupted)")
    serve.add_argument("--state-dir", type=Path, default=None,
                       help="crash-safe state directory for the service")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="snapshot cadence in batches (0 = explicit)")
    serve.add_argument("--slo-ingest-p99", type=float, default=None,
                       help="ingest latency SLO: windowed p99 of submit "
                            "latency must stay at or below this many "
                            "seconds (breach sheds load)")
    serve.add_argument("--slo-query-p99", type=float, default=None,
                       help="query latency SLO: windowed p99 of query "
                            "latency (breach serves stale snapshots)")
    serve.add_argument("--shards", type=int, default=0,
                       help="run the distributed tier: spawn this many "
                            "local shard-node worker processes, shard "
                            "--traces by map region over a consistent-"
                            "hash ring and cluster through the TCP wire "
                            "protocol (0 = the single-process service, "
                            "the default)")
    serve.add_argument("--shard-dir", type=Path, default=None,
                       help="directory for shard port/pid files and "
                            "per-shard logs (default: a temp dir; CI "
                            "uploads it on failure)")
    serve.add_argument("--mode", choices=MODES, default="opt",
                       help="clustering mode for the --shards run")
    serve.add_argument("--min-quorum", type=float, default=0.0,
                       help="minimum fraction of dispatched shards that "
                            "must survive re-dispatch (below it the run "
                            "fails with QuorumLost; default 0.0)")
    serve.add_argument("--rpc-timeout", type=float, default=5.0,
                       help="socket timeout in seconds for shard RPCs "
                            "(the real deadline a stalled shard hits)")
    serve.add_argument("--pool-size", type=int, default=1,
                       help="idle connections kept open per shard node "
                            "(handshake once per connection; 0 = one "
                            "connection per call, the pre-pool behavior)")
    serve.add_argument("--remote-phase3", action="store_true",
                       help="run Phase 3's planned grouped searches on "
                            "the shard nodes (byte-identical clusters and "
                            "search counts)")
    serve.add_argument("--shard-startup-timeout", type=float, default=30.0,
                       help="seconds to wait for every spawned shard to "
                            "write its port file before failing the "
                            "rendezvous")
    serve.add_argument("--fault-spec", default=None,
                       help="chaos schedule: a JSON object (or @file) "
                            "mapping injection points to FaultPlan "
                            "fields, e.g. '{\"transport.node0\": "
                            "{\"refuse_nth\": 1}}'")
    serve.add_argument("--result-out", type=Path, default=None,
                       help="write the --shards clustering result "
                            "document (sorted JSON) to this file")
    serve.add_argument("--counters-out", type=Path, default=None,
                       help="write the run's counter instruments "
                            "(sorted JSON; deterministic under a fixed "
                            "fault spec) to this file")

    shard_node = sub.add_parser(
        "shard-node",
        help="run one shard worker process (the repro serve --shards "
             "backend): Phase 1 over the framed TCP wire protocol",
    )
    shard_node.add_argument("--network", required=True, type=Path)
    shard_node.add_argument("--node-id", type=int, default=0,
                            help="identifier reported in handshakes")
    shard_node.add_argument("--host", default="127.0.0.1",
                            help="bind address (default loopback)")
    shard_node.add_argument("--port", type=int, default=0,
                            help="TCP port (default 0 = ephemeral)")
    shard_node.add_argument("--port-file", type=Path, default=None,
                            help="write the bound port here once "
                                 "listening (the spawn rendezvous)")

    recover = sub.add_parser(
        "recover",
        help="restore clustering state from a --state-dir and report it",
    )
    recover.add_argument("--network", required=True, type=Path)
    recover.add_argument("--state-dir", required=True, type=Path)
    recover.add_argument("--json", action="store_true",
                         help="print the recovered result document instead "
                              "of the human summary")

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    experiment.add_argument("id", choices=EXPERIMENTS)
    experiment.add_argument("--out-dir", type=Path, default=Path("experiment-output"))

    from .tune.profiles import add_profile_argument

    tune = sub.add_parser(
        "tune",
        help="auto-tuning harness: dataset passports, grid sweeps, "
             "best_config replay (docs/tuning.md)",
    )
    tune_sub = tune.add_subparsers(dest="tune_command", required=True)

    passport = tune_sub.add_parser(
        "passport",
        help="per-dataset sanity statistics for a workload profile",
    )
    add_profile_argument(passport, default="small")
    passport.add_argument("--smoke", action="store_true",
                          help="use the profile's smoke-sized workloads")
    passport.add_argument("--out-dir", type=Path,
                          default=Path("benchmarks/output/passports"),
                          help="directory for the per-dataset passport "
                               "JSONs and the summary CSV")
    passport.add_argument("--artifact", type=Path, default=None,
                          help="also write a BENCH-style artifact for the "
                               "trend ledger (e.g. benchmarks/output/"
                               "BENCH_passports.json)")

    sweep = tune_sub.add_parser(
        "sweep",
        help="grid sweep over a committed tune_grid.yaml; elects one "
             "best_config per network",
    )
    sweep.add_argument("--grid", type=Path, required=True,
                       help="grid document (tune_grid.yaml)")
    add_profile_argument(sweep, default="small")
    sweep.add_argument("--smoke", action="store_true",
                       help="use the profile's smoke-sized workloads")
    sweep.add_argument("--out-dir", type=Path,
                       default=Path("benchmarks/output/tuning"),
                       help="directory for sweep CSVs, best_config/ and "
                            "RESULTS_tuning.md")
    sweep.add_argument("--artifact", type=Path,
                       default=Path("benchmarks/output/BENCH_tune_sweep.json"),
                       help="BENCH-style sweep artifact path")

    reproduce = tune_sub.add_parser(
        "reproduce",
        help="replay a committed best_config on its recorded workload "
             "and verify the cluster digest byte-for-byte",
    )
    reproduce.add_argument("--best", type=Path, required=True,
                           help="best_config JSON written by tune sweep")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, json_lines=args.log_json)
    handler = {
        "generate-network": _cmd_generate,
        "stats": _cmd_stats,
        "simulate": _cmd_simulate,
        "cluster": _cmd_cluster,
        "serve": _cmd_serve,
        "shard-node": _cmd_shard_node,
        "recover": _cmd_recover,
        "experiment": _cmd_experiment,
        "tune": _cmd_tune,
    }[args.command]
    return handler(args)


def _cmd_generate(args: argparse.Namespace) -> int:
    network = REGION_PRESETS[args.region](scale=args.scale, seed=args.seed)
    save_network(network, args.out)
    stats = network_stats(network)
    print(f"wrote {args.out}: {stats.junction_count} junctions, "
          f"{stats.segment_count} segments, {stats.total_length_km:.1f} km")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    print(format_table1([network_stats(network)]))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    name = args.name or f"{network.name}-{args.objects}"
    dataset = simulate_dataset(
        network,
        SimulationConfig(
            object_count=args.objects,
            sample_interval=args.interval,
            hotspot_count=args.hotspots,
            destination_count=args.destinations,
            seed=args.seed,
            name=name,
        ),
    )
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} trajectories, "
          f"{dataset.total_points} points")
    return 0


def _start_obs_plane(args: argparse.Namespace, telemetry):
    """The run-scoped observability extras: HTTP plane and profiler."""
    obs_server = None
    if getattr(args, "obs_port", None) is not None:
        from .obs.server import ObservabilityServer

        obs_server = ObservabilityServer(telemetry, port=args.obs_port).start()
        print(f"observability plane at {obs_server.url}", file=sys.stderr)
    profiler = None
    if getattr(args, "profile_hz", 0.0) > 0.0:
        from .obs.profile import SamplingProfiler, phase_from_tracer

        profiler = SamplingProfiler(
            hz=args.profile_hz, phase=phase_from_tracer(telemetry.tracer)
        ).start()
    return obs_server, profiler


def _finish_obs_plane(
    args: argparse.Namespace, telemetry, obs_server, profiler
) -> None:
    """Stop the run-scoped extras and write the requested exports."""
    log = get_logger("cli")
    if profiler is not None:
        profiler.stop()
        if args.profile_out is not None:
            profiler.save(args.profile_out)
            log.info(
                "profile written",
                path=str(args.profile_out), samples=profiler.samples,
            )
    if obs_server is not None:
        obs_server.stop()
    if args.trace_out is not None:
        from .obs.export import save_chrome_trace

        save_chrome_trace(telemetry.tracer, args.trace_out)
        log.info("chrome trace written", path=str(args.trace_out))
    if args.folded_out is not None:
        from .obs.export import save_folded

        save_folded(telemetry.tracer, args.folded_out)
        log.info("folded stacks written", path=str(args.folded_out))


def _cmd_cluster(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    dataset = load_dataset(args.traces)
    if args.config_file is not None:
        from .tune.sweep import best_config_to_neat

        config = best_config_to_neat(
            json.loads(args.config_file.read_text(encoding="utf-8"))
        )
    else:
        config = NEATConfig(
            wq=args.wq, wk=args.wk, wv=args.wv,
            eps=args.eps, min_card=args.min_card, use_elb=not args.no_elb,
            workers=args.workers, use_llb=args.llb,
            vector_backend=args.vector_backend,
            llb_landmarks=max(1, args.llb_landmarks),
            max_retries=args.max_retries, deadline_s=args.deadline_s,
            max_pending=args.max_pending,
            checkpoint_every=max(0, args.checkpoint_every),
        )
    telemetry = Telemetry.create()
    obs_server, profiler = _start_obs_plane(args, telemetry)
    try:
        if args.batch_size is not None:
            return _cluster_streaming(args, network, dataset, config, telemetry)
        pipeline = NEAT(network, config, telemetry=telemetry)
        if args.state_dir is not None:
            result = pipeline.run_resumable(
                dataset, mode=args.mode, state_dir=args.state_dir
            )
        else:
            result = pipeline.run(dataset, mode=args.mode)
    finally:
        _finish_obs_plane(args, telemetry, obs_server, profiler)
    if args.metrics_out is not None:
        telemetry.save(args.metrics_out)
        get_logger("cli").info("metrics written", path=str(args.metrics_out))
    if args.svg is not None:
        from .analysis.visualize import render_svg

        render_svg(
            network, args.svg,
            flows=result.flows, clusters=result.clusters,
        )
    if args.json:
        # Machine-readable mode: stdout carries exactly one JSON document.
        print(json.dumps(result_to_dict(result, network_name=network.name)))
        return 0
    print(result.summary())
    for index, flow in enumerate(result.flows[:10]):
        print(f"  flow {index}: {len(flow)} segments, "
              f"{flow.trajectory_cardinality} trajectories, "
              f"{flow.route_length:.0f} m")
    if args.svg is not None:
        print(f"wrote {args.svg}")
    return 0


def _cluster_streaming(
    args: argparse.Namespace, network, dataset, config, telemetry
) -> int:
    """``cluster --batch-size N``: crash-safe streaming ingest.

    With ``--state-dir``, every batch is journaled before being
    acknowledged and a killed run resumes exactly after the last durable
    batch (already-ingested chunks are skipped by count — the batch
    split is deterministic, so chunk ``i`` is chunk ``i`` on every run).
    """
    from .core.incremental import IncrementalNEAT
    from .errors import PersistenceError

    trajectories = list(dataset.trajectories)
    size = max(1, args.batch_size)
    chunks = [
        trajectories[i : i + size] for i in range(0, len(trajectories), size)
    ]
    try:
        if args.state_dir is not None:
            clusterer = IncrementalNEAT.recover(
                Path(args.state_dir) / "incremental", network, config,
                telemetry=telemetry,
            )
        else:
            clusterer = IncrementalNEAT(network, config, telemetry=telemetry)
        resumed = clusterer.batch_count
        for chunk in chunks[resumed:]:
            clusterer.add_batch(chunk, auto_offset_ids=True)
        if args.state_dir is not None and clusterer.batch_count:
            clusterer.checkpoint()
    except PersistenceError as error:
        print(f"persistence failure: {error}", file=sys.stderr)
        return 1
    result = clusterer.snapshot_result()
    if args.metrics_out is not None:
        telemetry.save(args.metrics_out)
    if args.json:
        print(json.dumps(result_to_dict(result, network_name=network.name)))
        return 0
    print(
        f"ingested {clusterer.batch_count} batch(es) "
        f"({resumed} resumed, {len(chunks) - resumed} new): "
        f"{len(result.flows)} flows, {len(result.clusters)} clusters"
    )
    return 0


def _install_shutdown_handlers():
    """SIGTERM/SIGINT -> a shutdown event (graceful-drain trigger).

    Returns the event; the previous handlers are replaced for the rest
    of the process (the CLI exits right after serving anyway).  Signal
    handlers can only be installed from the main thread — embedders
    calling :func:`main` from a worker thread get the event without
    them (their own interpreter keeps signal ownership).
    """
    import signal
    import threading

    shutdown = threading.Event()

    def _request_shutdown(signum: int, frame: object) -> None:
        shutdown.set()

    try:
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    except ValueError:  # not the main thread
        pass
    return shutdown


def _serve_wait(args: argparse.Namespace, shutdown) -> None:
    """Block until ``--duration`` elapses or a shutdown signal arrives."""
    try:
        if args.duration is None:
            while not shutdown.wait(timeout=3600.0):
                pass
        elif args.duration > 0:
            shutdown.wait(timeout=args.duration)
    except KeyboardInterrupt:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a NeatService plus its HTTP observability plane.

    Starts the plane first (so supervisors can probe ``/health`` during
    startup ingest), then ingests ``--traces`` in batches, then serves
    until ``--duration`` elapses or the process is interrupted.  SIGTERM
    and SIGINT shut down gracefully: pending ingests are drained, a
    final checkpoint is taken when ``--state-dir`` is set, and the
    process exits 0.

    With ``--shards N`` the distributed tier runs instead: N local
    shard-node worker processes, region sharding over a consistent-hash
    ring, and the clustering dispatched over the TCP wire protocol.
    """
    if args.shards:
        return _serve_distributed(args)

    from .distributed.service import NeatService
    from .errors import ReproError

    network = load_network(args.network)
    config = NEATConfig(
        eps=args.eps,
        min_card=args.min_card,
        checkpoint_every=max(0, args.checkpoint_every),
        slo_ingest_p99_s=args.slo_ingest_p99,
        slo_query_p99_s=args.slo_query_p99,
    )
    service = NeatService(network, config, state_dir=args.state_dir)
    shutdown = _install_shutdown_handlers()
    obs = service.serve_obs(port=args.obs_port, host=args.obs_host)
    print(f"observability plane at {obs.url}", flush=True)
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        args.port_file.write_text(f"{obs.port}\n")
    try:
        if args.traces is not None:
            dataset = load_dataset(args.traces)
            trajectories = list(dataset.trajectories)
            size = max(1, args.batch_size)
            try:
                for start in range(0, len(trajectories), size):
                    if shutdown.is_set():
                        break
                    service.submit(trajectories[start : start + size])
            except ReproError as error:
                print(f"startup ingest failed: {error}", file=sys.stderr)
                return 1
            stats = service.stats()
            print(
                f"ingested {stats.batches_ingested} batch(es), "
                f"{stats.trajectories_ingested} trajectories: "
                f"{stats.flow_count} flows, {stats.cluster_count} clusters",
                flush=True,
            )
        _serve_wait(args, shutdown)
    finally:
        # Graceful drain: retry anything still queued, make the state
        # durable, then leave 0 — a supervisor's TERM is not an error.
        try:
            if service.pending_batches:
                service.flush_pending()
        except Exception as error:
            print(f"shutdown drain failed: {error}", file=sys.stderr)
        if args.state_dir is not None:
            try:
                service.checkpoint()
            except Exception as error:
                print(f"final checkpoint failed: {error}", file=sys.stderr)
        service.stop_obs()
        if shutdown.is_set():
            print("shut down gracefully", flush=True)
    return 0


def _cmd_shard_node(args: argparse.Namespace) -> int:
    """``repro shard-node``: one worker process of the distributed tier.

    Serves the wire protocol until a ``shutdown`` op or SIGTERM/SIGINT,
    publishing its bound port through ``--port-file`` (written
    atomically, so the spawner never reads a half-written port).
    """
    import os
    import signal

    from .distributed.transport import ShardNodeServer

    network = load_network(args.network)
    server = ShardNodeServer(
        network, node_id=args.node_id, host=args.host, port=args.port
    )
    server.start()

    def _request_shutdown(signum: int, frame: object) -> None:
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        temp = args.port_file.with_name(args.port_file.name + ".tmp")
        temp.write_text(f"{server.port}\n", encoding="utf-8")
        os.replace(temp, args.port_file)
    print(
        f"shard node {args.node_id} listening on {server.address}",
        flush=True,
    )
    server.serve_until_shutdown()
    print(f"shard node {args.node_id} stopped", flush=True)
    return 0


def _serve_distributed(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: the real multi-process distributed tier.

    Spawns N shard-node workers, shards ``--traces`` by map region over
    the consistent-hash ring, runs Phase 1 on the workers through the
    wire protocol (retry -> ring rebalance -> re-dispatch on failure)
    and Phases 2-3 centrally.  The result is byte-identical to a serial
    run, or explicitly degraded (``dropped_shards`` / exit 3 on
    ``QuorumLost``) — never silently partial.
    """
    import tempfile

    from .distributed.nodes import NeatCoordinator
    from .distributed.shardmap import RegionShardMap
    from .distributed.transport import (
        RemoteDataNode,
        TransportClient,
        spawn_local_shards,
        stop_shards,
    )
    from .errors import QuorumLost, ReproError
    from .obs.server import ObservabilityServer
    from .resilience import FaultInjector, FaultPlan

    network = load_network(args.network)
    config = NEATConfig(eps=args.eps, min_card=args.min_card)
    telemetry = Telemetry.create()
    faults = FaultInjector()
    if args.fault_spec:
        spec_text = args.fault_spec
        if spec_text.startswith("@"):
            spec_text = Path(spec_text[1:]).read_text(encoding="utf-8")
        for operation, fields in json.loads(spec_text).items():
            faults.arm(operation, FaultPlan(**fields))

    shutdown = _install_shutdown_handlers()
    cleanup_dir = None
    if args.shard_dir is not None:
        shard_dir = args.shard_dir
    else:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-shards-")
        shard_dir = Path(cleanup_dir.name)
    shards = spawn_local_shards(
        args.network, args.shards, work_dir=shard_dir, log_dir=shard_dir,
        startup_timeout_s=args.shard_startup_timeout,
    )
    nodes = [
        RemoteDataNode(
            shard.node_id,
            TransportClient(
                shard.host, shard.port,
                timeout_s=args.rpc_timeout,
                faults=faults,
                fault_operation=f"transport.node{shard.node_id}",
                metrics=telemetry.metrics,
                pool_size=args.pool_size,
            ),
        )
        for shard in shards
    ]
    shardmap = RegionShardMap(network, [shard.node_id for shard in shards])
    coordinator = NeatCoordinator(
        network, config,
        nodes=nodes, shardmap=shardmap,
        telemetry=telemetry, min_quorum=args.min_quorum,
        remote_phase3=args.remote_phase3,
    )

    def statusz() -> dict:
        return {
            "shards": coordinator.shard_table(),
            "ring": {
                "nodes": list(shardmap.ring.node_ids),
                "rebalances": shardmap.rebalances,
            },
            "network": {
                "name": network.name,
                "junctions": network.junction_count,
                "segments": network.segment_count,
            },
        }

    obs = ObservabilityServer(
        telemetry, statusz=statusz, host=args.obs_host, port=args.obs_port
    ).start()
    print(f"observability plane at {obs.url}", flush=True)
    print(
        f"spawned {len(shards)} shard node(s): "
        + ", ".join(s.address for s in shards),
        flush=True,
    )
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        args.port_file.write_text(f"{obs.port}\n")

    exit_code = 0
    try:
        if args.traces is not None:
            dataset = load_dataset(args.traces)
            result = None
            try:
                result = coordinator.run(
                    list(dataset.trajectories), mode=args.mode
                )
            except QuorumLost as error:
                print(f"quorum lost: {error}", file=sys.stderr)
                exit_code = 3
            except ReproError as error:
                print(f"distributed run failed: {error}", file=sys.stderr)
                exit_code = 1
            if result is not None:
                print(
                    f"clustered {len(dataset)} trajectories over "
                    f"{len(shards)} shard(s): {len(result.flows)} flows, "
                    f"{len(result.clusters)} clusters, "
                    f"dropped_shards={result.dropped_shards}",
                    flush=True,
                )
                if args.result_out is not None:
                    args.result_out.parent.mkdir(parents=True, exist_ok=True)
                    args.result_out.write_text(
                        json.dumps(
                            result_to_dict(result, network_name=network.name),
                            sort_keys=True,
                        ) + "\n",
                        encoding="utf-8",
                    )
        if args.counters_out is not None:
            counters = {
                instrument.name: (
                    int(instrument.value)
                    if float(instrument.value).is_integer()
                    else instrument.value
                )
                for instrument in telemetry.metrics
                if instrument.kind == "counter"
            }
            args.counters_out.parent.mkdir(parents=True, exist_ok=True)
            args.counters_out.write_text(
                json.dumps(counters, sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
        _serve_wait(args, shutdown)
    finally:
        for node in nodes:
            node.client.close()
        stop_shards(shards)
        obs.stop()
        if cleanup_dir is not None:
            cleanup_dir.cleanup()
        if shutdown.is_set():
            print("shut down gracefully", flush=True)
    return exit_code


def _cmd_recover(args: argparse.Namespace) -> int:
    from .core.incremental import IncrementalNEAT
    from .errors import PersistenceError

    network = load_network(args.network)
    try:
        clusterer = IncrementalNEAT.recover(
            Path(args.state_dir) / "incremental", network
        )
    except PersistenceError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    result = clusterer.snapshot_result()
    if args.json:
        print(json.dumps(result_to_dict(result, network_name=network.name)))
        return 0
    print(
        f"recovered {clusterer.batch_count} batch(es) from {args.state_dir}: "
        f"{len(result.flows)} flows, {len(result.clusters)} clusters"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import figures

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "table1": lambda: figures.run_table1(),
        "table2": lambda: figures.run_table2(),
        "table3": lambda: figures.run_table3(),
        "fig3": lambda: figures.run_fig3(out_dir=out_dir),
        "fig4": lambda: figures.run_fig4(),
        "fig5": lambda: figures.run_fig5(),
        "fig6": lambda: figures.run_fig6(),
        "fig7": lambda: figures.run_fig7(),
        "variant": lambda: figures.run_variant(),
    }
    selected = list(runners) if args.id == "all" else [args.id]
    for experiment_id in selected:
        result = runners[experiment_id]()
        text = result.render()
        print(f"===== {experiment_id} =====")
        print(text)
        print()
        (out_dir / f"{experiment_id}.txt").write_text(text + "\n")
    print(f"wrote {len(selected)} report(s) to {out_dir}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """``repro tune``: passports, grid sweeps and best_config replay."""
    handler = {
        "passport": _cmd_tune_passport,
        "sweep": _cmd_tune_sweep,
        "reproduce": _cmd_tune_reproduce,
    }[args.tune_command]
    return handler(args)


def _cmd_tune_passport(args: argparse.Namespace) -> int:
    from .tune.passport import (
        build_passport,
        passports_artifact,
        summary_csv,
        write_passport,
    )
    from .tune.profiles import resolve_profile

    profile = resolve_profile(args.profile)
    documents = []
    for spec in profile.resolved_specs(smoke=args.smoke):
        document = build_passport(spec, profile=profile.name)
        path = write_passport(
            document, args.out_dir / f"passport_{spec.name}.json"
        )
        print(
            f"wrote {path}: {document['dataset']['trajectories']} "
            f"trajectories, {document['dataset']['total_points']} points, "
            f"{document['network']['segments']} segments"
        )
        documents.append(document)
    summary_path = args.out_dir / "passport_summary.csv"
    summary_path.write_text(summary_csv(documents), encoding="utf-8")
    print(f"wrote {summary_path}")
    if args.artifact is not None:
        artifact = passports_artifact(documents, profile.name)
        args.artifact.parent.mkdir(parents=True, exist_ok=True)
        args.artifact.write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.artifact}")
    return 0


def _cmd_tune_sweep(args: argparse.Namespace) -> int:
    from .tune.sweep import run_sweep

    summary = run_sweep(
        args.grid, args.profile, args.out_dir, smoke=args.smoke
    )
    reports = summary.pop("reports")
    for report in reports:
        if report["best_index"] is None:
            print(
                f"{report['region']}: no configuration met the guardrails "
                f"(0/{report['grid_configs']} qualified)", file=sys.stderr,
            )
            continue
        best = report["best_config"]
        print(
            f"{report['region']}: best grid point {report['best_index']} "
            f"score={best['score']:g} clusters={best['metrics']['clusters']} "
            f"-> {args.out_dir / 'best_config' / (report['region'] + '.json')}"
        )
    args.artifact.parent.mkdir(parents=True, exist_ok=True)
    args.artifact.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.artifact}")
    # Every region must elect a winner for the sweep to count as green.
    return 0 if all(r["best_index"] is not None for r in reports) else 1


def _cmd_tune_reproduce(args: argparse.Namespace) -> int:
    from .tune.sweep import reproduce_best_config

    document = json.loads(args.best.read_text(encoding="utf-8"))
    matches, digest = reproduce_best_config(document)
    if not matches:
        print(
            f"digest mismatch: committed {document['digest']} but replay "
            f"produced {digest}", file=sys.stderr,
        )
        return 1
    print(
        f"reproduced {document['region']} best_config byte-identically "
        f"(digest {digest[:16]}…)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
