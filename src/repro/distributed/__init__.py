"""Distributed preprocessing substrate (the paper's Section II-C sketch).

The NEAT system "distributes trajectory datasets across multiple nodes in
a cluster.  These data nodes can perform some data preprocessing tasks."
This package implements that 3-tier deployment with one data-node role,
the :class:`ShardNode` op handler: in this process, or in *real* shard
worker processes (``repro shard-node``) behind the framed TCP wire
protocol of :mod:`repro.distributed.transport`, partitioned by map
region through the consistent-hash ring of
:mod:`repro.distributed.shardmap`.  Either
way, data nodes run Phase 1 over their trajectory shards, the
coordinator merges the partial base clusters (base-cluster formation is
a group-by, so the merge is exact) and runs Phases 2-3 centrally —
byte-identical to a serial run under any partition.

The tier is fault-tolerant: dispatches retry under
:class:`~repro.resilience.RetryPolicy`, dead nodes are tracked, trigger
a deterministic ring rebalance, and their shards are re-dispatched in
ring preference order (or reported in ``NEATResult.dropped_shards``),
and the :class:`NeatService` facade adds admission control, per-call
deadlines, a circuit breaker and degraded-mode (stale-snapshot) serving.
See ``docs/robustness.md``.
"""

from .nodes import NeatCoordinator, merge_base_clusters
from .service import NeatService, ServiceStats
from .shardmap import HashRing, RegionShardMap, boundary_sids
from .transport import (
    ConnectionPool,
    InProcessClient,
    RemoteDataNode,
    ShardNode,
    ShardNodeServer,
    ShardProcess,
    TransportClient,
    spawn_local_shards,
    stop_shards,
)

__all__ = [
    "ConnectionPool",
    "HashRing",
    "InProcessClient",
    "NeatCoordinator",
    "NeatService",
    "RegionShardMap",
    "RemoteDataNode",
    "ServiceStats",
    "ShardNode",
    "ShardNodeServer",
    "ShardProcess",
    "TransportClient",
    "boundary_sids",
    "merge_base_clusters",
    "spawn_local_shards",
    "stop_shards",
]
