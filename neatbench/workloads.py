"""The four benchmark workloads.

Each workload function fills the :class:`Measured` of its
:class:`Context`: raw timings, the per-layer counters the program exposes,
and operation counts.  All loops are closed (one caller, one process, each
call waits for the previous); every repetition does identical work on
fresh top-level objects.
"""

from __future__ import annotations

import gc
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core import NEAT, NEATConfig
from repro.distributed import (
    NeatCoordinator,
    NeatService,
    RegionShardMap,
    RemoteDataNode,
    TransportClient,
    spawn_local_shards,
    stop_shards,
)
from repro.obs import Telemetry
from repro.parallel import pool_counters, shutdown_pool
from repro.roadnet.io import save_network

from . import gates
from .inputs import Recipe, by_departure, network_for, trips
from .measure import HostClock, Interval
from .spans import SpanRecorder

#: Serial opt-NEAT on a paper-recipe ATL dataset: ~120k points, ~1 s.
DENSE = Recipe(scale=0.3, objects=2000, hotspots=2, destinations=3,
               sample_interval=5.0)
#: Many origin-destination pairs, sparse sampling: many flows, real Phase 3.
SPREAD = Recipe(scale=0.3, objects=800, hotspots=24, destinations=40,
                sample_interval=20.0, eps_factor=2.0)
#: The service stream: one trip per batch, in departure order.
STREAM = Recipe(scale=0.1, objects=80, hotspots=8, destinations=12,
                sample_interval=20.0)
STREAM_BATCH = 1
STREAM_CHECKPOINT_EVERY = 25
SHARDS = 2
#: Host elasticity of sharded_dense (see ``measure.adjust``): most of its
#: work runs in the shard processes, and its raw times follow the
#: coordinator's probe only in part.  On two sets of ten seeds on a 2-CPU
#: host, powers of 0.5-0.75 gave the smallest spread; the first power
#: overcorrected.
SHARDED_ELASTICITY = 0.6
#: Cold starts per run: at least 3, more while they take under 5 s in all
#: (a 20 ms service cold start is noisier than a 2 s pooled one).
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 5.0
RPC_TIMEOUT_S = 60.0


@dataclass
class Measured:
    """What one workload run measured.

    A timing sample is a list of :class:`Interval` parts: one for a single
    call, many for a whole stream of calls.
    """

    timings: dict[str, list[list[Interval]]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    trajectories: int = 0
    rss_mb: float = 0.0
    #: The one document digest every repetition produced.
    digest: str = ""
    #: Run ids of traced repetitions, and the timed calls of each traced
    #: and untraced repetition (their ratio is the tracing overhead).
    traced_runs: list[int] = field(default_factory=list)
    rep_traced: list[list[Interval]] = field(default_factory=list)
    rep_untraced: list[list[Interval]] = field(default_factory=list)

    def add(self, name: str, *parts: Interval) -> None:
        self.timings.setdefault(name, []).append(list(parts))


@dataclass
class Context:
    seed: int
    seconds: float
    work_dir: Path
    recorder: SpanRecorder | None = None
    clock: HostClock = field(default_factory=HostClock)
    measured: Measured = field(default_factory=Measured)

    @property
    def trace(self) -> bool:
        return self.recorder is not None


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_hwm_mb(pid: int) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _op(measured: Measured, fn: Callable[[], object]) -> object:
    """Run one operation, counting it; a raising operation fails the run."""
    measured.attempted += 1
    try:
        return fn()
    except gates.GateFailed:
        raise
    except Exception as error:
        measured.failed += 1
        raise gates.GateFailed("operation_failed", repr(error)) from error


def _repeat(ctx: Context, rep: Callable[[int, bool], None], min_reps: int) -> None:
    """Run ``rep`` until ``ctx.seconds`` have passed (at least ``min_reps``).

    In a traced run every other repetition is traced, so the untraced ones
    measure the tracing overhead under the same host conditions.
    """
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while index < min_reps or time.perf_counter() < deadline:
        traced = ctx.trace and index % 2 == 0
        if ctx.recorder is not None:
            ctx.recorder.enabled = traced
            ctx.recorder.run_id = index
        rep(index, traced)
        index += 1
    if ctx.recorder is not None:
        ctx.recorder.enabled = False


def _setups(setup_once: Callable[[int], None]) -> None:
    """Run ``setup_once(attempt)`` as often as the set-up budget allows."""
    started = time.perf_counter()
    attempt = 0
    while attempt < MIN_SETUPS or (
        attempt < MAX_SETUPS and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        setup_once(attempt)
        attempt += 1


def _rooted(ctx: Context, traced: bool, name: str, fn: Callable[[], object]):
    if traced and ctx.recorder is not None:
        return ctx.recorder.span(name, fn)
    return fn()


def _counters(telemetry_counters: dict[str, float], names: dict[str, str]) -> dict[str, float]:
    return {
        metric: float(telemetry_counters.get(source, 0.0))
        for metric, source in names.items()
    }


#: Program counters (``NEATResult.telemetry``) behind per-layer metrics.
PIPELINE_COUNTERS = {
    "phase1.t_fragments": "neat.phase1.t_fragments",
    "phase1.base_clusters": "neat.phase1.base_clusters",
    "phase2.flows": "neat.phase2.flows_kept",
    "phase2.noise_flows": "neat.phase2.min_card_drops",
    "phase3.pair_checks": "neat.phase3.pair_checks",
    "phase3.elb_pruned": "neat.phase3.elb_pruned",
    "phase3.hausdorff_evals": "neat.phase3.hausdorff_evaluations",
    "phase3.clusters": "neat.phase3.clusters",
    "sp.searches": "roadnet.sp.computations",
    "sp.nodes_expanded": "roadnet.sp.nodes_expanded",
    "sp.grouped_searches": "roadnet.sp.grouped_searches",
    "sp.cache_hits": "roadnet.sp.cache_hits",
}
TRANSPORT_COUNTERS = {
    "rpc.calls": "transport.requests",
    "rpc.batched_calls": "transport.batched_calls",
    "rpc.bytes_sent": "transport.bytes_sent",
    "rpc.reconnects": "transport.reconnects",
    "rpc.errors": "transport.errors",
    "remote_p3.pairs": "coordinator.phase3_remote_pairs",
    "remote_p3.local_fallbacks": "coordinator.phase3_local_fallbacks",
    "shard.boundary_segments": "ring.boundary_segments",
}


def _pool_delta(before: dict[str, int]) -> dict[str, float]:
    after = pool_counters()
    return {
        f"pool.{key}": float(after[f"pool.{key}"] - before[f"pool.{key}"])
        for key in ("batches", "tasks", "bytes_shipped", "serial_fallbacks",
                    "crash_recoveries")
    }


# ----------------------------------------------------------------------
# batch_dense / batch_spread
# ----------------------------------------------------------------------
def batch(ctx: Context, recipe: Recipe, workers: int | None) -> Measured:
    """Opt-NEAT over one dataset, a fresh ``NEAT`` per repetition."""
    measured = ctx.measured
    clock = ctx.clock
    network = network_for(recipe)
    trajectories = trips(recipe, network, ctx.seed)
    measured.trajectories = len(trajectories)
    config = NEATConfig(eps=recipe.eps, workers=workers)

    expected = None
    if workers != 1:
        # The pooled result must equal a serial run of the same input.
        serial = NEAT(network, NEATConfig(eps=recipe.eps)).run_opt(trajectories)
        expected = gates.document_digest(gates.checked_document(serial, network))

    digests: list[str] = []

    def setup_once(attempt: int) -> None:
        # Cold start: a freshly built map (no memo tables) and, for the
        # pooled configuration, no running worker pool.
        nonlocal network
        shutdown_pool()

        def cold_start():
            fresh = network_for(recipe)
            return fresh, NEAT(fresh, config).run_opt(trajectories)

        (network, result), setup = clock.timed(lambda: _op(measured, cold_start))
        measured.add("setup_s", setup)
        digests.append(gates.document_digest(gates.checked_document(result, network)))

    _setups(setup_once)

    def rep(index: int, traced: bool) -> None:
        pool_before = pool_counters()
        result, cluster = clock.timed(lambda: _op(
            measured,
            lambda: _rooted(ctx, traced, "bench.cluster",
                            lambda: NEAT(network, config).run_opt(trajectories)),
        ))
        document, query = clock.timed(lambda: _op(
            measured,
            lambda: _rooted(ctx, traced, "bench.query",
                            lambda: gates.checked_document(result, network)),
        ))
        digests.append(gates.document_digest(document))
        if traced:
            measured.traced_runs.append(index)
            measured.rep_traced.append([cluster, query])
            measured.counters = _counters(
                result.telemetry["metrics"]["counters"], PIPELINE_COUNTERS
            )
            measured.counters.update(_pool_delta(pool_before))
            return
        if ctx.trace:
            measured.rep_untraced.append([cluster, query])
        measured.add("cluster_s", cluster)
        measured.add("query_s", query)

    _repeat(ctx, rep, min_reps=4 if ctx.trace else 3)
    digest = gates.check_repetitions(digests)
    if expected is not None:
        gates.require_same("pooled_equals_serial", expected, digest)
    measured.digest = digest
    shutdown_pool()
    measured.rss_mb = own_rss_mb()
    return measured


# ----------------------------------------------------------------------
# sharded_dense
# ----------------------------------------------------------------------
class _Cluster:
    """Two local shard processes plus per-repetition coordinators."""

    def __init__(self, network, network_path: Path, work_dir: Path) -> None:
        self.network = network
        self.shards = spawn_local_shards(network_path, SHARDS, work_dir=work_dir)

    def coordinator(self, config: NEATConfig) -> tuple[NeatCoordinator, Telemetry]:
        telemetry = Telemetry()
        nodes = [
            RemoteDataNode(
                shard.node_id,
                TransportClient(
                    shard.host, shard.port, timeout_s=RPC_TIMEOUT_S,
                    metrics=telemetry.metrics, pool_size=SHARDS,
                ),
            )
            for shard in self.shards
        ]
        shardmap = RegionShardMap(
            self.network, [s.node_id for s in self.shards], route="trid"
        )
        coordinator = NeatCoordinator(
            self.network, config, nodes=nodes, shardmap=shardmap,
            telemetry=telemetry, remote_phase3=True,
        )
        return coordinator, telemetry

    @staticmethod
    def release(coordinator: NeatCoordinator) -> None:
        """Make the shards cold again and close this coordinator's sockets."""
        for node in coordinator.nodes:
            node.client.call("reset")
            node.client.close()

    def peak_rss_mb(self) -> float:
        return sum(_proc_hwm_mb(s.process.pid) for s in self.shards)

    def stop(self) -> None:
        stop_shards(self.shards)


def sharded(ctx: Context) -> Measured:
    """``batch_dense``'s input and config through 2 shard processes."""
    recipe = DENSE
    measured = ctx.measured
    clock = ctx.clock
    clock.elasticity = SHARDED_ELASTICITY
    network = network_for(recipe)
    trajectories = trips(recipe, network, ctx.seed)
    measured.trajectories = len(trajectories)
    config = NEATConfig(eps=recipe.eps)
    serial = NEAT(network, config).run_opt(trajectories)
    expected = gates.document_digest(gates.checked_document(serial, network))
    del serial

    network_path = ctx.work_dir / "network.json"
    save_network(network, network_path)
    sizes = [
        len(shard) for shard in RegionShardMap(
            network, list(range(SHARDS)), route="trid"
        ).shard(trajectories).values()
    ]
    measured.counters["shard.skew"] = max(sizes) / (sum(sizes) / len(sizes))
    digests: list[str] = []
    cluster: _Cluster | None = None
    def setup_once(attempt: int) -> None:
        nonlocal cluster

        def cold_start():
            spawned = _Cluster(network, network_path, ctx.work_dir / f"shards-{attempt}")
            try:
                coordinator, _ = spawned.coordinator(config)
                return spawned, coordinator, coordinator.run(trajectories)
            except BaseException:
                spawned.stop()
                raise

        (spawned, coordinator, result), setup = clock.timed(
            lambda: _op(measured, cold_start)
        )
        measured.add("setup_s", setup)
        if cluster is not None:
            cluster.stop()
        cluster = spawned
        digests.append(_sharded_digest(measured, result, network))
        cluster.release(coordinator)

    try:
        _setups(setup_once)

        def rep(index: int, traced: bool) -> None:
            coordinator, telemetry = cluster.coordinator(config)
            result, timed_run = clock.timed(lambda: _op(
                measured,
                lambda: _rooted(ctx, traced, "bench.cluster",
                                lambda: coordinator.run(trajectories)),
            ))
            document, query = clock.timed(lambda: _op(
                measured,
                lambda: _rooted(ctx, traced, "bench.query",
                                lambda: _sharded_document(measured, result, network)),
            ))
            digests.append(gates.document_digest(document))
            cluster.release(coordinator)
            if traced:
                measured.traced_runs.append(index)
                measured.rep_traced.append([timed_run, query])
                counters = telemetry.snapshot()["metrics"]["counters"]
                measured.counters.update(_counters(counters, TRANSPORT_COUNTERS))
                measured.counters.update(_result_counts(result))
                return
            if ctx.trace:
                measured.rep_untraced.append([timed_run, query])
            measured.add("cluster_s", timed_run)
            measured.add("query_s", query)

        _repeat(ctx, rep, min_reps=4 if ctx.trace else 3)
        measured.rss_mb = own_rss_mb() + cluster.peak_rss_mb()
    finally:
        if cluster is not None:
            cluster.stop()
    digest = gates.check_repetitions(digests)
    gates.require_same("sharded_equals_serial", expected, digest)
    measured.digest = digest
    return measured


def _result_counts(result) -> dict[str, float]:
    """Phase counts of a coordinator result.

    The coordinator publishes no phase counters (Phase 1 runs inside the
    shard processes), so the counts come from the merged result itself.
    """
    stats = result.refinement_stats
    return {
        "phase1.base_clusters": float(len(result.base_clusters)),
        "phase1.t_fragments": float(sum(len(c.fragments) for c in result.base_clusters)),
        "phase2.flows": float(len(result.flows)),
        "phase2.noise_flows": float(len(result.noise_flows)),
        "phase3.pair_checks": float(stats.pair_checks),
        "phase3.elb_pruned": float(stats.elb_pruned),
        "phase3.hausdorff_evals": float(stats.hausdorff_evaluations),
        "phase3.clusters": float(len(result.clusters)),
        "sp.searches": float(stats.shortest_path_computations),
    }


def _sharded_document(measured: Measured, result, network) -> dict:
    if result.dropped_shards:
        measured.failed += 1
        raise gates.GateFailed("shard_dropped", f"shards {result.dropped_shards}")
    return gates.checked_document(result, network)


def _sharded_digest(measured: Measured, result, network) -> str:
    return gates.document_digest(_sharded_document(measured, result, network))


# ----------------------------------------------------------------------
# service_stream
# ----------------------------------------------------------------------
def _dir_bytes(root: Path) -> dict[str, int]:
    sizes = {"journal": 0, "distcache": 0, "snapshot": 0}
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        size = path.stat().st_size
        if "journal" in path.name:
            sizes["journal"] += size
        elif "distcache" in path.name:
            sizes["distcache"] += size
        else:
            sizes["snapshot"] += size
    return sizes


class _Cadence:
    """Times calls back to back, probing between them every ``EVERY_S``."""

    EVERY_S = 0.5

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        gc.collect()
        clock.sample()
        self.last_at = time.perf_counter()
        self.calls: list[tuple[str, Interval]] = []

    def call(self, name: str, fn: Callable[[], object]) -> object:
        started = time.perf_counter()
        value = fn()
        self.calls.append((name, Interval(started, time.perf_counter())))
        if time.perf_counter() - self.last_at >= self.EVERY_S:
            self.clock.sample()
            self.last_at = time.perf_counter()
        return value

    def named(self, name: str | None = None) -> list[Interval]:
        return [part for kind, part in self.calls if name in (None, kind)]


def service(ctx: Context) -> Measured:
    """A durable ``NeatService`` fed small batches, queried after each."""
    recipe = STREAM
    measured = ctx.measured
    clock = ctx.clock
    stream = by_departure(trips(recipe, network_for(recipe), ctx.seed))
    measured.trajectories = len(stream)
    batches = [stream[i:i + STREAM_BATCH] for i in range(0, len(stream), STREAM_BATCH)]
    config = NEATConfig(eps=recipe.eps, checkpoint_every=STREAM_CHECKPOINT_EVERY)

    def setup_once(attempt: int) -> None:
        # Cold start: fresh map, empty state directory, first submit.
        state_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=ctx.work_dir))

        def cold_start():
            svc = NeatService(network_for(recipe), config, state_dir=state_dir)
            return svc.submit(batches[0])

        _, setup = clock.timed(lambda: _op(measured, cold_start))
        measured.add("setup_s", setup)
        shutil.rmtree(state_dir, ignore_errors=True)

    _setups(setup_once)

    digests: list[str] = []

    def rep(index: int, traced: bool) -> None:
        network = network_for(recipe)
        state_dir = Path(tempfile.mkdtemp(prefix="stream-", dir=ctx.work_dir))
        try:
            cadence = _Cadence(clock)
            svc = _op(measured, lambda: NeatService(network, config, state_dir=state_dir))
            document = None
            for chunk in batches:
                cadence.call("submit_s", lambda: _op(measured, lambda: _rooted(
                    ctx, traced, "bench.submit", lambda: svc.submit(chunk)
                )))
                document = cadence.call("query_s", lambda: _op(measured, lambda: _rooted(
                    ctx, traced, "bench.query", svc.get_clustering
                )))
            stats = svc.stats()
            if stats.stale_queries or stats.rejected_batches or stats.quarantined_trajectories:
                raise gates.GateFailed("service_degraded", repr(stats))
            counters = svc.telemetry.snapshot()["metrics"]["counters"]
            del svc

            recovered, recover = clock.timed(lambda: _op(
                measured, lambda: _rooted(
                    ctx, traced, "bench.recover",
                    lambda: NeatService(network, config, state_dir=state_dir),
                ),
            ))
            served = _op(measured, recovered.get_clustering)
            before = gates.without_serving_flags(document)
            if gates.without_serving_flags(served) != before:
                raise gates.GateFailed(
                    "restart_document", "the restarted service serves another clustering"
                )
            digests.append(gates.document_digest(before))
            disk = _dir_bytes(state_dir)
            del recovered
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

        if traced:
            measured.traced_runs.append(index)
            measured.rep_traced.append(cadence.named())
            measured.counters = _counters(counters, PIPELINE_COUNTERS)
            measured.counters.update({
                "incremental.retained_flows": float(stats.flow_count),
                "service.stale_queries": float(stats.stale_queries),
                "service.retries": float(stats.retries),
                "persist.journal_bytes": float(disk["journal"]),
                "persist.snapshot_bytes": float(disk["snapshot"]),
                "persist.distcache_bytes": float(disk["distcache"]),
            })
            return
        if ctx.trace:
            measured.rep_untraced.append(cadence.named())
        for name, part in cadence.calls:
            measured.add(name, part)
        measured.add("recover_s", recover)
        measured.add("cluster_s", *cadence.named())
        measured.add("submit_total_s", *cadence.named("submit_s"))

    # Traced runs alternate, so 4 streams leave 2 untraced ones: enough
    # submits and queries (2 x 80) for a p90.
    _repeat(ctx, rep, min_reps=4 if ctx.trace else 1)
    measured.digest = gates.check_repetitions(digests)
    measured.rss_mb = own_rss_mb()
    return measured


WORKLOADS: dict[str, Callable[[Context], Measured]] = {
    "batch_dense": lambda ctx: batch(ctx, DENSE, workers=1),
    "batch_spread": lambda ctx: batch(ctx, SPREAD, workers=None),
    "sharded_dense": sharded,
    "service_stream": service,
}
