"""Phase 3: density-based flow cluster refinement.

Implements Section III-C of the paper:

* the *modified Hausdorff distance* between two flow clusters — the
  endpoint-wise max-min of network shortest-path distances between the two
  representative routes' ends (Equation 5, Definition 11);
* an adapted DBSCAN over flow clusters — distance = modified Hausdorff,
  no minimum cardinality for resulting clusters, and deterministic seeding
  from the flow with the longest representative route;
* the *Euclidean lower bound* (ELB) optimization — since straight-line
  distance never exceeds network distance, a pair whose four endpoint
  Euclidean distances all exceed ``ε`` can be discarded without running a
  single shortest-path search (Section III-C3).

Instrumentation counters record how many pairs the ELB pruned and how many
Dijkstra searches actually ran, which is exactly what Figure 7 plots.

DBSCAN runs over the flows' eps-neighbour graph, built pair by pair and
extendable in place, so an online caller whose flows only append decides
only the pairs a batch adds (:func:`refine_flow_clusters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from ..cluster.dbscan import clusters_from_labels, dbscan
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine, plan_source_groups
from .config import NEATConfig
from .flow_cluster import FlowCluster


@dataclass
class RefinementStats:
    """Phase 3 instrumentation (drives the Figure 7 reproduction).

    Attributes:
        pair_checks: Candidate ordered (flow, flow) pairs examined for the
            eps-neighbour graph (two per unordered pair decided).
        elb_pruned: Pairs discarded by the Euclidean lower bound.
        hausdorff_evaluations: Pairs for which the exact network-distance
            Hausdorff value was computed.
        shortest_path_computations: Dijkstra searches actually executed
            (memoized repeats excluded).
    """

    pair_checks: int = 0
    elb_pruned: int = 0
    hausdorff_evaluations: int = 0
    shortest_path_computations: int = 0


@dataclass
class TrajectoryCluster:
    """A final NEAT cluster: one or more merged flow clusters.

    Satisfies the paper's two criteria — the member flows are within the
    network proximity ``ε`` of each other (high density) and each flow is a
    major traffic stream (high continuity).
    """

    cluster_id: int
    flows: list[FlowCluster] = field(default_factory=list)

    @property
    def participants(self) -> frozenset[int]:
        """Distinct trajectories across all member flows."""
        union: set[int] = set()
        for flow in self.flows:
            union.update(flow.participants)
        return frozenset(union)

    @property
    def trajectory_cardinality(self) -> int:
        """Number of distinct participating trajectories."""
        return len(self.participants)

    @property
    def density(self) -> int:
        """Total t-fragment count across member flows."""
        return sum(flow.density for flow in self.flows)

    @property
    def total_route_length(self) -> float:
        """Summed representative-route length of the member flows."""
        return sum(flow.route_length for flow in self.flows)

    def __len__(self) -> int:
        return len(self.flows)


def flow_distance(
    engine: ShortestPathEngine,
    flow_a: FlowCluster,
    flow_b: FlowCluster,
    cutoff: float | None = None,
) -> float:
    """Modified Hausdorff distance between two flows (Equation 5).

    ``max( max_a min_b d_N(a,b), max_b min_a d_N(a,b) )`` over the two
    endpoint junctions of each representative route, with ``d_N`` the
    undirected network shortest-path distance.

    Args:
        cutoff: Optional per-query bound.  Endpoint distances beyond it
            come back as infinity, so the returned value is exact
            whenever it is ``<= cutoff`` and infinite otherwise — which
            is all a ``<= eps`` region query needs, at a fraction of the
            settled nodes.
    """
    a1, a2 = flow_a.endpoints
    b1, b2 = flow_b.endpoints
    d11 = engine.distance(a1, b1, cutoff=cutoff)
    d12 = engine.distance(a1, b2, cutoff=cutoff)
    d21 = engine.distance(a2, b1, cutoff=cutoff)
    d22 = engine.distance(a2, b2, cutoff=cutoff)
    forward = max(min(d11, d12), min(d21, d22))
    backward = max(min(d11, d21), min(d12, d22))
    return max(forward, backward)


def euclidean_lower_bound(
    network: RoadNetwork, flow_a: FlowCluster, flow_b: FlowCluster
) -> float:
    """The minimum Euclidean distance among the four endpoint pairs.

    By the ELB property every network distance is at least its Euclidean
    counterpart, so when this value exceeds ``ε`` the modified Hausdorff
    distance must too and the pair can be pruned.
    """
    pa1, pa2 = (network.node_point(n) for n in flow_a.endpoints)
    pb1, pb2 = (network.node_point(n) for n in flow_b.endpoints)
    return min(
        pa1.distance_to(pb1),
        pa1.distance_to(pb2),
        pa2.distance_to(pb1),
        pa2.distance_to(pb2),
    )


def plan_phase3(
    network: RoadNetwork,
    flows: Sequence[FlowCluster],
    config: NEATConfig,
    engine: ShortestPathEngine,
    start: int = 0,
) -> tuple[bytearray | None, list[tuple[int, tuple[int, ...]]]]:
    """Phase 3's one plan for the pairs new since ``start``: ``(elb_rows, groups)``.

    The one place Phase 3's prune decisions are made and its searches
    chosen, once per refinement, on the caller: the neighbour-graph
    builder indexes the mask, and every executor (inline, pool or
    shards) runs whole groups of the plan, so the pairs they search
    cannot drift apart.  Flows before ``start`` already have their
    neighbour rows, so only pairs ``(i, j)`` with ``i < j`` and
    ``j >= start`` are planned (``start=0``: every pair).

    ``elb_rows[(j - start) * n + i] == 1`` means flow pair ``(i, j)`` is
    provably farther than ``eps`` by the Euclidean lower bound, one row
    per new flow ``j`` (``None`` when ``use_elb`` is off; see
    :func:`repro.core.bounds.elb_far_mask`, numpy-accelerated when
    available with identical decisions); it runs no search, so it adds
    nothing to the search counters.  ``groups`` are the
    ``(source, targets)`` searches of
    :func:`~repro.roadnet.shortest_path.plan_source_groups` over the
    surviving endpoint pairs the engine cannot answer yet; an engine
    with an accelerated oracle answers point queries itself, so its plan
    has none.
    """
    from ..vec import resolve_vector_backend
    from .bounds import elb_far_mask

    elb_rows = (
        elb_far_mask(network, flows, config.eps, resolve_vector_backend(), start)
        if config.use_elb
        else None
    )
    groups = [] if engine.oracle is not None else plan_source_groups(
        engine.unknown_pairs(
            _surviving_endpoint_pairs(flows, elb_rows, start), cutoff=config.eps
        )
    )
    return elb_rows, groups


def _surviving_endpoint_pairs(
    flow_list: Sequence[FlowCluster], elb_rows: bytearray | None, start: int
) -> Iterator[tuple[int, int]]:
    """Endpoint node pairs the neighbour-graph builder will ask the engine for.

    Walks the unordered new flow pairs ``(i, j)``, ``i < j``,
    ``j >= start``, that survive the Euclidean lower bound (exactly the
    pairs whose modified Hausdorff distance Phase 3 must evaluate) and
    expands each into its endpoint-junction pairs, in deterministic
    order.
    :meth:`~repro.roadnet.shortest_path.ShortestPathEngine.unknown_pairs`
    drops identities and repeats.
    """
    n = len(flow_list)
    for i in range(n):
        a1, a2 = flow_list[i].endpoints
        for j in range(max(i + 1, start), n):
            if elb_rows is not None and elb_rows[(j - start) * n + i]:
                continue
            b1, b2 = flow_list[j].endpoints
            yield a1, b1
            yield a1, b2
            yield a2, b1
            yield a2, b2


def refine_flow_clusters(
    network: RoadNetwork,
    flows: Sequence[FlowCluster],
    config: NEATConfig | None = None,
    engine: ShortestPathEngine | None = None,
    stats: RefinementStats | None = None,
    metrics=None,
    workers: int | None = None,
    executor: Callable | None = None,
    neighbours: list[list[int]] | None = None,
) -> list[TrajectoryCluster]:
    """Run Phase 3: merge eps-close flows into final trajectory clusters.

    Phase 3 is DBSCAN over the flows' eps-neighbour graph.  The graph's
    rows for a prefix of ``flows`` may be handed in (``neighbours``);
    only the pairs involving a flow past that prefix are decided, each
    unordered pair once (the modified Hausdorff distance and the ELB
    are symmetric), and the rows are extended in place.  This is the
    incremental DBSCAN of Ester et al. (VLDB 1998) for insertions: a
    caller whose flows only append, like
    :class:`~repro.core.incremental.IncrementalNEAT`, pays each batch
    only for the new pairs, and the batch pipeline is the same code
    started from an empty graph.

    Distances are computed bounded by ``eps``: the Euclidean lower
    bound already proves a pruned pair is far apart, and for the
    survivors a bounded search answering "farther than eps" settles only
    the eps-ball instead of the whole graph.  :func:`plan_phase3` plans
    the searches once; the surviving endpoint pairs are then answered up
    front by its grouped multi-target kernels, inline, in worker
    processes or on shard nodes — cluster output and every determinism
    counter are identical whichever executor ran them.

    Args:
        network: The road network.
        flows: Phase 2 output (the kept flows).
        config: NEAT parameters (``eps``, ``min_pts``, ``use_elb``).
        engine: Optional shared shortest-path engine (undirected); a fresh
            memoizing engine is created when omitted.
        stats: Optional stats collector, filled in place.  It counts
            ordered pairs, two per unordered pair decided by this call,
            so a refine from an empty graph reports ``n * (n - 1)``
            pair checks, and the calls over a growing pool sum to what
            one refine of the final pool reports.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the ``neat.phase3.*`` counters are published from
            the collected stats when refinement finishes.
        workers: Worker processes for the distance batches (``None``
            falls back to ``config.workers``; ``<=1`` serial).
        executor: Optional ``executor(groups, limit)`` that runs the
            plan's grouped searches elsewhere (the coordinator's shard
            executor); see
            :meth:`~repro.roadnet.shortest_path.ShortestPathEngine.prefetch_grouped`.
        neighbours: The eps-neighbour rows of ``flows[:len(neighbours)]``
            (ascending flow indices, ``self`` excluded), as an earlier
            call over those flows left them; extended in place to one
            row per flow.  ``None`` starts from an empty graph.

    Returns:
        Final clusters ordered by discovery (the first cluster is seeded by
        the flow with the longest representative route, per the paper's
        determinism rule).
    """
    if config is None:
        config = NEATConfig()
    if engine is None:
        engine = ShortestPathEngine(network, directed=False)
    if stats is None:
        stats = RefinementStats()
    if workers is None:
        workers = config.workers
    if neighbours is None:
        neighbours = []

    flow_list = list(flows)
    start = len(neighbours)
    if start > len(flow_list):
        raise ValueError(f"{start} neighbour rows for {len(flow_list)} flows")
    if not flow_list:
        _publish_stats(metrics, stats, cluster_count=0)
        return []

    eps = config.eps
    sp_before = engine.computations

    # Plan once, up front: the graph builder indexes the plan's mask,
    # and the grouped searches answer every distance it will need.
    elb_rows, groups = plan_phase3(network, flow_list, config, engine, start)
    engine.prefetch_grouped(
        groups, cutoff=eps,
        executor=executor or partial(engine.search_groups, workers=workers),
    )

    # Decide each new pair once; a neighbour joins both rows, and since
    # j only grows every row stays ascending (the order a region query
    # over all flows would list it in).
    n = len(flow_list)
    for j in range(start, n):
        row = []
        neighbours.append(row)
        offset = (j - start) * n
        for i in range(j):
            stats.pair_checks += 2
            if elb_rows is not None and elb_rows[offset + i]:
                stats.elb_pruned += 2
                continue
            stats.hausdorff_evaluations += 2
            if flow_distance(engine, flow_list[i], flow_list[j], cutoff=eps) <= eps:
                neighbours[i].append(j)
                row.append(i)

    # "The density-based clustering ... always starts each round with the
    # flow cluster whose representative route is the longest" (III-C2).
    order = sorted(range(n), key=lambda i: (-flow_list[i].route_length, i))
    labels = dbscan(n, neighbours.__getitem__, config.min_pts, order=order)

    clusters = []
    for cluster_id, indices in enumerate(clusters_from_labels(labels)):
        clusters.append(
            TrajectoryCluster(cluster_id, [flow_list[i] for i in indices])
        )
    # With min_pts > 1 DBSCAN can leave noise flows; the paper sets no
    # minimum cardinality, but when a caller raises min_pts we still return
    # each leftover flow as its own singleton cluster to stay lossless.
    clustered = {i for indices in clusters_from_labels(labels) for i in indices}
    for index in range(n):
        if index not in clustered:
            clusters.append(TrajectoryCluster(len(clusters), [flow_list[index]]))

    stats.shortest_path_computations += engine.computations - sp_before
    _publish_stats(metrics, stats, cluster_count=len(clusters))
    return clusters


def _publish_stats(metrics, stats: RefinementStats, cluster_count: int) -> None:
    """Publish one refinement's stats as ``neat.phase3.*`` instruments."""
    if metrics is None:
        return
    metrics.counter(
        "neat.phase3.pair_checks",
        "Ordered flow pairs decided for the eps-neighbour graph",
    ).inc(stats.pair_checks)
    metrics.counter(
        "neat.phase3.elb_pruned", "Pairs discarded by the Euclidean lower bound"
    ).inc(stats.elb_pruned)
    metrics.counter(
        "neat.phase3.hausdorff_evaluations",
        "Pairs whose exact modified Hausdorff distance was computed",
    ).inc(stats.hausdorff_evaluations)
    metrics.counter(
        "neat.phase3.sp_computations",
        "Dijkstra searches executed during refinement (memo hits excluded)",
    ).inc(stats.shortest_path_computations)
    metrics.counter(
        "neat.phase3.clusters", "Final trajectory clusters produced"
    ).inc(cluster_count)
