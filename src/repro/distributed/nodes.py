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
3. the :class:`NeatCoordinator` runs Phases 2-3 on the merged clusters
   through NEAT's own phase driver, producing bit-identical results,
   timings and counters to a centralized run.

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
from ..core.model import Trajectory
from ..core.pipeline import NEAT
from ..core.result import NEATResult
from ..errors import NodeDown, QuorumLost, RetriesExhausted
from ..obs import Telemetry, get_logger
from ..parallel import split_spans
from ..resilience import FaultInjector, RetryPolicy
from ..roadnet.network import RoadNetwork
from .shardmap import RegionShardMap, boundary_sids
from .transport import InProcessClient, RemoteDataNode, ShardNode

_log = get_logger("distributed.nodes")

#: A Phase 3 span gets one blocking retry after its pipelined call.
_SPAN_RETRY = RetryPolicy(max_retries=1, base_delay_s=0.0, jitter=0.0)


def _start(starter: Callable[[], object]) -> object:
    """A pipelined call's pending half, or the error starting it raised."""
    try:
        return starter()
    except Exception as error:
        return error


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


class NeatCoordinator(NEAT):
    """The server tier: shards input, gathers Phase 1, runs Phases 2-3.

    A :class:`~repro.core.pipeline.NEAT` whose Phase 1 runs on data nodes
    and whose Phase 3 searches may run there too; NEAT's phase driver
    sequences the phases, so a coordinator run reports the same phase
    timings, spans and Phase 2-3 counters as a serial run.  The
    ``neat.phase1.*`` counters are counted on the data nodes.

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
        telemetry: Optional shared telemetry bundle (default disabled);
            runs publish their spans, phase counters and the
            ``resilience.*``, ``ring.*`` and ``coordinator.*`` counters
            into it.
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
        shardmap: The
            :class:`~repro.distributed.shardmap.RegionShardMap` cutting
            shards through its consistent-hash ring; by default a
            region map over the nodes' ids.  A dead node triggers a
            deterministic ring rebalance (counted in ``ring.rebalances``)
            and re-dispatch follows ring preference order.  Results are
            byte-identical under any map — Phase 1 merges exactly under
            any partition.
        remote_phase3: Run Phase 3's grouped searches on the nodes.
            Refinement plans its searches once
            (:func:`~repro.core.refinement.plan_phase3`); the
            coordinator's shard executor cuts the planned groups into
            one contiguous span per healthy node, pipelines one
            ``distances`` call per span, and hands every group's answer
            to the engine's one store path — so clusters, search counts
            and engine counters equal a serial run's at any node count
            (eps-bounded distances are exact values, not
            approximations).  A span whose node fails runs inline, so
            faults degrade throughput, never correctness.
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
        super().__init__(
            network, config,
            telemetry=telemetry if telemetry is not None else Telemetry.disabled(),
        )
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
        if len({node.node_id for node in self.nodes}) != len(self.nodes):
            raise ValueError("node ids must be unique")
        self.shardmap = (
            shardmap if shardmap is not None
            else RegionShardMap(network, [node.node_id for node in self.nodes])
        )
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_retries=self.config.max_retries,
                base_delay_s=0.0, jitter=0.0,
            )
        )
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
        in_ring = set(self.shardmap.ring.node_ids)
        return [
            {
                "node": node.node_id,
                "healthy": bool(node.healthy),
                "trajectories": len(node.trajectories),
                "address": node.client.address,
                "in_ring": node.node_id in in_ring,
            }
            for node in self.nodes
        ]

    def run(self, trajectories: Sequence[Trajectory], mode: str = "opt") -> NEATResult:
        """Distribute, preprocess on nodes, merge, finish centrally.

        Fault-free, this produces exactly the result of
        ``NEAT(network, config).run(...)`` — the tests assert bit-equality
        of flow routes.  Under faults it produces the centralized result
        over the *surviving* shards, reporting the rest in
        ``result.dropped_shards``.
        """
        return super().run(trajectories, mode)

    def _base_clusters(
        self, trajectory_list: list[Trajectory], result: NEATResult, metrics
    ) -> list[BaseCluster]:
        """Phase 1 on the data nodes: shard, preprocess, merge.

        Failed shards are re-dispatched or reported in
        ``result.dropped_shards``; too few survivors raise
        :class:`~repro.errors.QuorumLost`.
        """
        for node in self.nodes:
            node.trajectories.clear()
        by_node = self.shardmap.shard(trajectory_list)
        # Surplus nodes get empty shards; an empty shard is never
        # dispatched (the regression this guards: empty shards used to be
        # preprocessed, producing empty partials on every surplus node).
        assignments = [
            (index, node, by_node[node.node_id])
            for index, node in enumerate(self.nodes)
            if by_node.get(node.node_id)
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
        result.dropped_shards = dropped
        return merge_base_clusters(
            partials, trajectory_order=[tr.trid for tr in trajectory_list]
        )

    def _phase3_executor(self) -> Callable | None:
        return self._remote_search if self.remote_phase3 else None

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

    def _remote_search(
        self, groups: Sequence[tuple[int, tuple[int, ...]]], limit: float
    ) -> list[tuple[dict[int, float], int]]:
        """Phase 3's shard executor: whole planned groups on the nodes.

        One contiguous span of ``groups`` per healthy node
        (:func:`~repro.parallel.split_spans`, as the pool cuts them), one
        pipelined ``distances`` call per span; returns every group's
        ``(found, expanded)`` in plan order for the engine to file.  A
        span whose call fails twice runs inline on the coordinator
        (``coordinator.phase3_local_fallbacks``): the same searches, so
        clusters and counters do not change.
        """
        capable = [node for node in self.nodes if node.healthy]
        calls = []
        for node, (first, count) in zip(
            capable, split_spans(len(groups), len(capable))
        ):
            span = groups[first:first + count]
            starter = functools.partial(node.start_distances, span, limit)
            calls.append((node, span, starter, _start(starter)))
        if not calls:
            return self.engine.search_groups(groups, limit)
        results: list[tuple[dict[int, float], int]] = []
        for node, span, starter, call in calls:
            try:
                results.extend(self._retried(
                    _SPAN_RETRY, node, "distances", starter,
                    functools.partial(node.finish_distances, groups=span), call,
                ))
            except RetriesExhausted as error:
                self._inc(
                    "coordinator.phase3_local_fallbacks",
                    "Phase 3 group spans searched locally after a node "
                    "failed them",
                )
                _log.warning(
                    "phase3 span falling back to local search",
                    node=node.node_id, groups=len(span), error=repr(error),
                )
                results.extend(self.engine.search_groups(span, limit))
                continue
            self._inc(
                "coordinator.phase3_remote_pairs",
                "Phase 3 endpoint pairs answered by shard nodes",
                sum(len(targets) for _, targets in span),
            )
        return results

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
            if self.shardmap.remove_node(node.node_id):
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

        Candidates are tried in the ring's preference order for the
        shard's region — the failover target is the node a real
        rebalance would hand the region to.
        """
        rank = {
            node_id: position
            for position, node_id in enumerate(
                self.shardmap.redispatch_order(shard)
            )
        }
        candidates = sorted(
            self.nodes, key=lambda n: rank.get(n.node_id, len(rank))
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
