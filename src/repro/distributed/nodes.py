"""The coordinator for distributed Phase 1, fault-tolerant.

Base-cluster formation (Phase 1) is a *distributive* aggregation: a base
cluster is "all t-fragments with this sid", so fragments extracted on any
shard can be merged by sid without loss.  That makes the paper's data-node
preprocessing exact:

1. each data node (a shard node in this process or in a shard process,
   driven through :class:`~repro.distributed.transport.RemoteDataNode`)
   fragments its trajectory shard and groups the fragments into partial
   base clusters;
2. :func:`merge_base_clusters` unions the partial clusters by sid;
3. the :class:`NeatCoordinator` runs Phases 2-3 on the merged clusters,
   producing bit-identical results to a centralized run.

On top of that dataflow the coordinator is *robust*: node dispatches run
under a :class:`~repro.resilience.RetryPolicy`, a node whose retries are
exhausted is marked dead, its shard is re-dispatched to surviving nodes
(Phase 1 being distributive makes the re-dispatch exact too), and if even
that fails the merge proceeds without the shard — the loss is reported in
``NEATResult.dropped_shards`` rather than poisoning the run.  A quorum
floor turns "too many shards lost" into an explicit
:class:`~repro.errors.QuorumLost` error.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Iterable, Sequence

from ..core.base_cluster import BaseCluster
from ..core.config import NEATConfig
from ..core.flow_formation import form_flow_clusters
from ..core.model import Trajectory
from ..core.refinement import RefinementStats, refine_flow_clusters
from ..core.result import NEATResult, PhaseTimings
from ..errors import NodeDown, QuorumLost, RetriesExhausted
from ..obs import Telemetry, get_logger
from ..resilience import FaultInjector, RetryPolicy
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from .shardmap import RegionShardMap, boundary_sids, partition_slices
from .transport import InProcessClient, RemoteDataNode, ShardNode

_log = get_logger("distributed.nodes")

#: A Phase 3 slice gets one blocking retry after its pipelined call.
_SLICE_RETRY = RetryPolicy(max_retries=1, base_delay_s=0.0, jitter=0.0)


def _start(starter: Callable[[], object]) -> object:
    """A pipelined call's pending half, or the error starting it raised."""
    try:
        return starter()
    except Exception as error:
        return error


def shard_round_robin(
    trajectories: Sequence[Trajectory], shard_count: int
) -> list[list[Trajectory]]:
    """Partition trajectories across ``shard_count`` shards round-robin.

    ``shard_count`` may exceed the trajectory count; the surplus shards
    come back empty and the coordinator skips them (an empty shard is not
    dispatched to a node).
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    shards: list[list[Trajectory]] = [[] for _ in range(shard_count)]
    for index, trajectory in enumerate(trajectories):
        shards[index % shard_count].append(trajectory)
    return shards


def merge_base_clusters(
    partials: Iterable[Sequence[BaseCluster]],
    trajectory_order: Sequence[int] | None = None,
) -> list[BaseCluster]:
    """Union partial base clusters by sid (exact, order-independent).

    Returns the merged clusters sorted density-descending, sid ascending —
    the same contract as centralized Phase 1 output.

    Args:
        partials: Per-shard Phase 1 outputs, in any order.
        trajectory_order: When given (the original input trids, in input
            order), each merged cluster's fragments are stably re-sorted
            into that trajectory order.  A trajectory's fragments arrive
            from exactly one shard already in extraction order, so the
            stable sort reconstructs the *centralized* fragment order
            byte-for-byte — regardless of dispatch order, region
            sharding or re-dispatch after a node death.
    """
    merged: dict[int, BaseCluster] = {}
    for partial in partials:
        for cluster in partial:
            target = merged.get(cluster.sid)
            if target is None:
                target = BaseCluster(cluster.sid)
                merged[cluster.sid] = target
            for fragment in cluster.fragments:
                target.add(fragment)
    if trajectory_order is not None:
        rank = {trid: index for index, trid in enumerate(trajectory_order)}
        fallback = len(rank)
        for cluster in merged.values():
            cluster.fragments.sort(
                key=lambda fragment: rank.get(fragment.trid, fallback)
            )
    return sorted(merged.values(), key=lambda s: (-s.density, s.sid))


class NeatCoordinator:
    """The server tier: shards input, gathers Phase 1, runs Phases 2-3.

    Args:
        network: The road network (replicated to every node).
        config: NEAT parameters; ``config.max_retries`` seeds the default
            retry policy.
        node_count: Number of in-process nodes to build when ``nodes`` is
            not given: :class:`RemoteDataNode` s over
            :class:`InProcessClient` s sharing one fault injector
            (``node.client.faults``, armed at ``transport.node{id}``).
        retry_policy: Policy for node dispatches.  The default retries
            ``config.max_retries`` times with zero backoff — pass a real
            policy when fronting shard processes.
        telemetry: Optional shared telemetry bundle; the coordinator
            publishes ``resilience.*`` and ``coordinator.*`` counters and
            structured events into it.
        redispatch: Re-run a failed shard's trajectories on surviving
            nodes before declaring the shard dropped.
        min_quorum: Minimum fraction of dispatched shards that must be
            merged (after re-dispatch); going below raises
            :class:`~repro.errors.QuorumLost`.  0.0 (default) always
            proceeds with whatever survived.
        nodes: Explicit :class:`RemoteDataNode` s to dispatch to, e.g.
            ones fronting shard processes through a
            :class:`~repro.distributed.transport.TransportClient`.
            ``node_count`` is ignored when given.
        shardmap: Optional
            :class:`~repro.distributed.shardmap.RegionShardMap`: shards
            are cut by map region through its consistent-hash ring
            instead of round-robin, a dead node triggers a deterministic
            ring rebalance (counted in ``ring.rebalances``) and
            re-dispatch follows ring preference order.  Results are
            byte-identical either way — Phase 1 merges exactly under any
            partition.
        remote_phase3: Fan the Phase 3 distance work out to the nodes.
            The coordinator enumerates exactly the endpoint pairs its
            local refinement would search (the lower-bound survivors),
            partitions them contiguously across healthy remote nodes,
            pipelines ``distances`` calls and absorbs the answers into
            its own engine — refinement then runs without a single
            local shortest-path search, and the clusters stay
            byte-identical because eps-bounded distances are exact
            values, not approximations.  A node that fails its slice is
            simply not absorbed (refinement computes those pairs
            locally), so faults degrade throughput, never correctness.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: NEATConfig | None = None,
        node_count: int = 4,
        retry_policy: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
        redispatch: bool = True,
        min_quorum: float = 0.0,
        nodes: Sequence | None = None,
        shardmap: "RegionShardMap | None" = None,
        remote_phase3: bool = False,
    ) -> None:
        if nodes is None and node_count < 1:
            raise ValueError("node_count must be >= 1")
        if nodes is not None and not nodes:
            raise ValueError("nodes must be non-empty when given")
        if not 0.0 <= min_quorum <= 1.0:
            raise ValueError(f"min_quorum must be in [0, 1], got {min_quorum}")
        self.network = network
        self.config = config if config is not None else NEATConfig()
        if nodes is None:
            faults = FaultInjector()
            nodes = [
                RemoteDataNode(i, InProcessClient(
                    ShardNode(network, node_id=i),
                    faults=faults, fault_operation=f"transport.node{i}",
                ))
                for i in range(node_count)
            ]
        self.nodes = list(nodes)
        self.shardmap = shardmap
        self.engine = ShortestPathEngine(network, directed=False)
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_retries=self.config.max_retries,
                base_delay_s=0.0, jitter=0.0,
            )
        )
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.redispatch = redispatch
        self.min_quorum = min_quorum
        self.remote_phase3 = remote_phase3

    # ------------------------------------------------------------------
    def _inc(self, name: str, description: str, amount: float = 1.0) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.inc(name, amount=amount, description=description)

    def node_health(self) -> dict[int, bool]:
        """Liveness by node id (the coordinator's health-tracking view)."""
        return {node.node_id: node.healthy for node in self.nodes}

    def shard_table(self) -> list[dict]:
        """The ``/statusz`` shard table: one row per node.

        Each node contributes its client's address; ring membership
        reflects any rebalances performed so far.
        """
        in_ring = (
            set(self.shardmap.ring.node_ids)
            if self.shardmap is not None else None
        )
        rows = []
        for node in self.nodes:
            rows.append({
                "node": node.node_id,
                "healthy": bool(node.healthy),
                "trajectories": len(node.trajectories),
                "address": node.client.address,
                "in_ring": (
                    node.node_id in in_ring if in_ring is not None else None
                ),
            })
        return rows

    def run(self, trajectories: Sequence[Trajectory], mode: str = "opt") -> NEATResult:
        """Distribute, preprocess on nodes, merge, finish centrally.

        Fault-free, this produces exactly the result of
        ``NEAT(network, config).run(...)`` — the tests assert bit-equality
        of flow routes.  Under faults it produces the centralized result
        over the *surviving* shards, reporting the rest in
        ``result.dropped_shards``.
        """
        if mode not in ("base", "flow", "opt"):
            raise ValueError(f"unknown mode {mode!r}")
        for node in self.nodes:
            node.trajectories.clear()
        if self.shardmap is not None:
            by_node = self.shardmap.shard(trajectories)
            shards = [
                by_node.get(node.node_id, []) for node in self.nodes
            ]
        else:
            shards = shard_round_robin(trajectories, len(self.nodes))
        # Surplus nodes get empty shards; an empty shard is never
        # dispatched (the regression this guards: empty shards used to be
        # preprocessed, producing empty partials on every surplus node).
        assignments = [
            (index, node, shard)
            for index, (node, shard) in enumerate(zip(self.nodes, shards))
            if shard
        ]
        for _, node, shard in assignments:
            node.ingest(shard)

        partials, failed = self._gather_partials(assignments)
        self._inc(
            "coordinator.shards_dispatched",
            "Non-empty shards dispatched to data nodes", len(assignments),
        )

        dropped: list[int] = []
        for index, shard in failed:
            if self.redispatch and self._redispatch(index, shard, partials):
                continue
            dropped.append(index)
            self._inc(
                "coordinator.shards_dropped",
                "Shards abandoned after re-dispatch failed",
            )
            _log.warning("shard dropped", shard=index, trajectories=len(shard))

        surviving = len(assignments) - len(dropped)
        if assignments and surviving < math.ceil(self.min_quorum * len(assignments)):
            raise QuorumLost(surviving, len(assignments), self.min_quorum)

        if self.telemetry.enabled:
            # Boundary accounting: segments whose fragments arrived from
            # more than one shard.  The merge handles them exactly; the
            # counter makes the partition's edge effects observable.
            self._inc(
                "ring.boundary_segments",
                "Segments whose fragments arrived from multiple shards in "
                "the last merge", len(boundary_sids(partials)),
            )
        result = NEATResult(mode=mode, timings=PhaseTimings())
        result.dropped_shards = dropped
        result.base_clusters = merge_base_clusters(
            partials, trajectory_order=[tr.trid for tr in trajectories]
        )
        if mode == "base":
            return result

        formation = form_flow_clusters(
            self.network, result.base_clusters, self.config
        )
        result.flows = formation.flows
        result.noise_flows = formation.noise_flows
        result.min_card_used = formation.min_card_used
        if mode == "flow":
            return result

        stats = RefinementStats()
        if self.remote_phase3 and result.flows:
            # Seed the stats with the shard-side search count so the
            # Figure-7 accounting still reports the work done, wherever
            # it ran (refinement's own delta only sees local searches).
            stats.shortest_path_computations += self._phase3_remote_prefetch(
                result.flows
            )
        result.clusters = refine_flow_clusters(
            self.network, result.flows, self.config,
            engine=self.engine, stats=stats,
        )
        result.refinement_stats = stats
        return result

    # ------------------------------------------------------------------
    def _gather_partials(
        self, assignments: list[tuple[int, RemoteDataNode, list[Trajectory]]]
    ) -> tuple[list[Sequence[BaseCluster]], list[tuple[int, list[Trajectory]]]]:
        """Phase 1 over every assigned shard, pipelined.

        Every node gets its ``preprocess`` request written *before any
        response is read*, so shard processes compute concurrently
        instead of one-at-a-time behind a blocking call.
        """
        started = [
            (index, node, shard, _start(self._preprocess_starter(node, shard)))
            for index, node, shard in assignments
        ]
        partials: list[Sequence[BaseCluster]] = []
        failed: list[tuple[int, list[Trajectory]]] = []
        for index, node, shard, call in started:
            partial = self._dispatch(node, shard, index, call)
            if partial is None:
                failed.append((index, shard))
            else:
                partials.append(partial)
        return partials, failed

    def _preprocess_starter(
        self, node: RemoteDataNode, shard: Sequence[Trajectory]
    ) -> Callable[[], object]:
        return functools.partial(
            node.start_preprocess, shard,
            keep_interior_points=self.config.keep_interior_points,
        )

    def _retried(
        self, policy: RetryPolicy, node: RemoteDataNode, operation: str,
        start: Callable[[], object], finish: Callable[[object], Any],
        started: object = None,
    ) -> Any:
        """``finish(start())`` on ``node`` under ``policy``.

        ``started`` is an already pipelined first attempt (what
        :func:`_start` returned): it is the policy's first attempt, so a
        pipelined call gets the attempt budget of a blocking one.  Raises
        :class:`RetriesExhausted` when every attempt failed.
        """
        first = [] if started is None else [started]

        def once():
            call = first.pop() if first else start()
            if isinstance(call, BaseException):
                raise call
            return finish(call)

        def on_retry(attempt: int, delay: float, error: BaseException) -> None:
            self._inc("resilience.retries", "Attempts retried by a RetryPolicy")
            _log.warning(
                "node call retrying",
                node=node.node_id, operation=operation,
                attempt=attempt, delay_s=round(delay, 6), error=repr(error),
            )

        return policy.call(
            once, operation=f"node{node.node_id}.{operation}",
            on_retry=on_retry,
        )

    def _phase3_remote_prefetch(self, flows: Sequence) -> int:
        """Ship Phase 3's distance work to the shards; absorb the answers.

        Enumerates the same lower-bound-surviving endpoint pairs local
        refinement would search (same enumerator, same order), cuts them
        into contiguous :func:`~repro.distributed.shardmap.partition_slices`
        across healthy nodes, pipelines one wire call
        per node (chunked through ``batch`` frames for large slices) and
        merges the answers into the coordinator engine's memo tables.
        ``refine_flow_clusters`` then finds every pair pre-answered and
        runs zero local searches.

        A slice whose pipelined call fails is retried once on the same
        node; if that fails too the slice is *dropped* — not absorbed —
        and refinement computes those pairs locally
        (``coordinator.phase3_local_fallbacks``).  Either way the
        clusters are byte-identical: bounded distances are exact values,
        and an unanswered pair is answered by the same search serial NEAT
        would run.

        Returns the shard-side search count, to be folded into the
        refinement stats.
        """
        from ..core.refinement import _surviving_endpoint_pairs, prune_masks

        capable = [node for node in self.nodes if node.healthy]
        if not capable:
            return 0
        eps = self.config.eps
        flow_list = list(flows)
        pairs = _surviving_endpoint_pairs(
            flow_list,
            *prune_masks(self.network, flow_list, self.config, self.engine),
        )
        # Skip pairs the engine already knows (exact hit, or proven
        # farther than eps): a warm coordinator re-run ships only the
        # genuinely new work.
        todo = self.engine.unknown_pairs(pairs, cutoff=eps)
        if not todo:
            return 0

        slices = partition_slices(len(todo), [n.node_id for n in capable])
        calls = []
        for node, (_, start, stop) in zip(capable, slices):
            if start < stop:
                chunk = todo[start:stop]
                starter = functools.partial(node.start_distances, chunk, cutoff=eps)
                calls.append((node, chunk, starter, _start(starter)))

        exact: dict[tuple[int, int], float] = {}
        bounded: dict[tuple[int, int], float] = {}
        computations = 0
        absorbed = 0
        for node, chunk, starter, call in calls:
            try:
                values, count = self._retried(
                    _SLICE_RETRY, node, "distances", starter,
                    node.finish_distances, call,
                )
            except RetriesExhausted as error:
                self._inc(
                    "coordinator.phase3_local_fallbacks",
                    "Phase 3 pair slices computed locally after a node "
                    "failed them",
                )
                _log.warning(
                    "phase3 slice falling back to local compute",
                    node=node.node_id, pairs=len(chunk), error=repr(error),
                )
                continue
            if len(values) != len(chunk):
                continue
            computations += count
            absorbed += len(chunk)
            for key, value in zip(chunk, values):
                if value is None:
                    # Farther than eps: record the bounded verdict, the
                    # exact analogue of a local cutoff search's INFINITY.
                    bounded[key] = eps
                else:
                    exact[key] = float(value)
        if exact or bounded:
            self.engine.absorb_cache(exact, bounded, mark_warm=False)
        if absorbed:
            self._inc(
                "coordinator.phase3_remote_pairs",
                "Phase 3 endpoint pairs answered by shard nodes", absorbed,
            )
        return computations

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        node: RemoteDataNode,
        shard: Sequence[Trajectory],
        shard_index: int,
        started: object = None,
    ) -> list[BaseCluster] | None:
        """One shard through one node under the retry policy.

        ``started`` is the node's pipelined first attempt, if any (see
        :meth:`_retried`).  Returns the partial base clusters, or None
        after marking the node dead when every attempt failed.
        """
        try:
            return self._retried(
                self.retry_policy, node, "preprocess",
                self._preprocess_starter(node, shard),
                node.finish_preprocess, started,
            )
        except (RetriesExhausted, NodeDown) as error:
            node.kill()
            if self.shardmap is not None and self.shardmap.remove_node(
                node.node_id
            ):
                # Deterministic ring rebalance: only regions the dead
                # node owned move, each to its ring successor.
                self._inc(
                    "ring.rebalances",
                    "Consistent-hash ring rebalances after a node death",
                )
            self._inc(
                "resilience.node_failures",
                "Data nodes marked dead by the coordinator",
            )
            _log.error(
                "node marked dead",
                node=node.node_id, shard=shard_index, error=repr(error),
            )
            return None

    def _redispatch(
        self,
        shard_index: int,
        shard: list[Trajectory],
        partials: list[Sequence[BaseCluster]],
    ) -> bool:
        """Re-run a failed shard on surviving nodes; True when recovered.

        With a shard map, candidates are tried in the ring's preference
        order for the shard's region — the failover target is the node a
        real rebalance would hand the region to.  Without one, nodes are
        tried in id order.
        """
        candidates = self.nodes
        if self.shardmap is not None:
            rank = {
                node_id: position
                for position, node_id in enumerate(
                    self.shardmap.redispatch_order(shard)
                )
            }
            candidates = sorted(
                self.nodes,
                key=lambda n: rank.get(n.node_id, len(rank)),
            )
        for node in candidates:
            if not node.healthy:
                continue
            partial = self._dispatch(node, shard, shard_index)
            if partial is not None:
                node.ingest(shard)
                partials.append(partial)
                self._inc(
                    "coordinator.shards_redispatched",
                    "Failed shards recovered on surviving nodes",
                )
                _log.info(
                    "shard redispatched",
                    shard=shard_index, node=node.node_id,
                    trajectories=len(shard),
                )
                return True
        return False
