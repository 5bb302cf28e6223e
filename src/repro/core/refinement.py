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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..cluster.dbscan import clusters_from_labels, dbscan
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from .config import NEATConfig
from .flow_cluster import FlowCluster


@dataclass
class RefinementStats:
    """Phase 3 instrumentation (drives the Figure 7 reproduction).

    Attributes:
        pair_checks: Candidate (flow, flow) pairs examined in region queries.
        elb_pruned: Pairs discarded by the Euclidean lower bound alone.
        llb_evaluations: ELB survivors also checked against the landmark
            (ALT triangle-inequality) lower bound — 0 unless the LLB tier
            is enabled (``config.use_llb``).
        llb_pruned: Pairs the landmark lower bound discarded that the
            Euclidean bound could not.
        hausdorff_evaluations: Pairs for which the exact network-distance
            Hausdorff value was computed.
        shortest_path_computations: Dijkstra searches actually executed
            (memoized repeats excluded).
    """

    pair_checks: int = 0
    elb_pruned: int = 0
    llb_evaluations: int = 0
    llb_pruned: int = 0
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


def landmark_lower_bound(
    oracle, flow_a: FlowCluster, flow_b: FlowCluster
) -> float:
    """Landmark (ALT) lower bound on the modified Hausdorff distance.

    Composes the per-endpoint-pair triangle-inequality bounds of a
    :class:`~repro.roadnet.landmarks.LandmarkOracle` through the same
    max-min structure as Equation 5: each ``lower_bound(s, t)`` is
    admissible for ``d_N(s, t)``, and max/min are monotone, so the
    composed value never exceeds the true flow distance — when it
    exceeds ``ε`` the pair is safely pruned.  Symmetric in its flow
    arguments, so region queries and prefetch enumeration agree.
    """
    a1, a2 = flow_a.endpoints
    b1, b2 = flow_b.endpoints
    l11 = oracle.lower_bound(a1, b1)
    l12 = oracle.lower_bound(a1, b2)
    l21 = oracle.lower_bound(a2, b1)
    l22 = oracle.lower_bound(a2, b2)
    forward = max(min(l11, l12), min(l21, l22))
    backward = max(min(l11, l21), min(l12, l22))
    return max(forward, backward)


def prune_masks(
    network: RoadNetwork,
    flow_list: Sequence[FlowCluster],
    config: NEATConfig,
    engine: ShortestPathEngine,
) -> tuple[bytearray | None, bytearray | None]:
    """Phase 3's ELB and LLB prune masks (``None`` where a tier is off).

    The one place Phase 3's prune decisions are made: region queries,
    the prefetch enumeration and the coordinator's remote prefetch all
    index these masks, so the pairs they search cannot drift apart.
    ``mask[i * n + j] == 1`` means pair ``(i, j)`` is provably farther
    than ``eps`` (see :func:`repro.core.bounds.elb_far_mask` and
    :func:`~repro.core.bounds.llb_far_mask`; numpy-accelerated when
    available, with identical decisions either way).  Landmark tables
    are engine-memoized per network version; the sweeps run outside the
    Figure-7 counters (bounds are free at query time, like the
    Euclidean bound).
    """
    from ..vec import resolve_vector_backend
    from .bounds import elb_far_mask, llb_far_mask

    backend = resolve_vector_backend(config.vector_backend)
    elb_mask = (
        elb_far_mask(network, flow_list, config.eps, backend)
        if config.use_elb
        else None
    )
    llb_mask = None
    if config.use_llb and not engine.directed:
        llb = engine.landmark_bounds(config.llb_landmarks)
        llb_mask = llb_far_mask(llb, flow_list, config.eps, backend)
    return elb_mask, llb_mask


def _surviving_endpoint_pairs(
    flow_list: Sequence[FlowCluster],
    elb_mask: bytearray | None,
    llb_mask: bytearray | None,
) -> list[tuple[int, int]]:
    """Endpoint node pairs the region queries will ask the engine for.

    Enumerates unordered flow pairs that survive the :func:`prune_masks`
    tiers (exactly the pairs whose modified Hausdorff distance Phase 3
    must evaluate) and expands each into its endpoint-junction pairs, in
    deterministic order.  Pairs are deduplicated after symmetric
    normalization and ``(n, n)`` identities are dropped, so the payload
    shipped to worker processes (and the grouped planner's input)
    carries each distinct query once.
    """
    n = len(flow_list)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i in range(n):
        a1, a2 = flow_list[i].endpoints
        row = i * n
        for j in range(i + 1, n):
            if elb_mask is not None and elb_mask[row + j]:
                continue
            if llb_mask is not None and llb_mask[row + j]:
                continue
            b1, b2 = flow_list[j].endpoints
            for source, target in (
                (a1, b1), (a1, b2), (a2, b1), (a2, b2)
            ):
                if source == target:
                    continue
                key = (
                    (source, target) if source <= target else (target, source)
                )
                if key in seen:
                    continue
                seen.add(key)
                pairs.append(key)
    return pairs


def refine_flow_clusters(
    network: RoadNetwork,
    flows: Sequence[FlowCluster],
    config: NEATConfig | None = None,
    engine: ShortestPathEngine | None = None,
    stats: RefinementStats | None = None,
    metrics=None,
    workers: int | None = None,
) -> list[TrajectoryCluster]:
    """Run Phase 3: merge eps-close flows into final trajectory clusters.

    Region queries run their shortest-path searches bounded by ``eps``:
    the lower-bound tiers (Euclidean, optionally landmark) already prove
    a pruned pair is far apart, and for the survivors a bounded search
    answering "farther than eps" settles only the eps-ball instead of
    the whole graph.  Unless the engine carries an accelerated oracle,
    the surviving endpoint pairs are answered up front by batched
    multi-target single-source kernels — one search per distinct
    endpoint instead of one per pair — optionally fanned out across
    worker processes; cluster output and every determinism counter are
    identical at any worker count.

    Args:
        network: The road network.
        flows: Phase 2 output (the kept flows).
        config: NEAT parameters (``eps``, ``min_pts``, ``use_elb``).
        engine: Optional shared shortest-path engine (undirected); a fresh
            memoizing engine is created when omitted.
        stats: Optional stats collector, filled in place.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the ``neat.phase3.*`` counters are published from
            the collected stats when refinement finishes.
        workers: Worker processes for the distance batches (``None``
            falls back to ``config.workers``; ``<=1`` serial).

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

    flow_list = list(flows)
    if not flow_list:
        _publish_stats(metrics, stats, cluster_count=0)
        return []

    eps = config.eps
    sp_before = engine.computations

    # Batch the lower-bound tiers once, up front: region queries and the
    # prefetch enumeration below index the masks instead of recomputing
    # per-pair bounds, so the counters they drive cannot drift.
    elb_mask, llb_mask = prune_masks(network, flow_list, config, engine)

    if engine.oracle is None:
        # Tiered oracle: answer every distance the region queries below
        # will need with batched multi-target single-source kernels —
        # O(distinct endpoints) searches instead of one per surviving
        # pair.  Runs at any worker count (the grouping is
        # deterministic), so serial and parallel runs execute the same
        # searches and report identical counters.
        engine.prefetch_grouped(
            _surviving_endpoint_pairs(flow_list, elb_mask, llb_mask),
            cutoff=eps,
            workers=workers,
        )

    def region_query(index: int) -> list[int]:
        found = []
        row = index * len(flow_list)
        for other in range(len(flow_list)):
            if other == index:
                continue
            stats.pair_checks += 1
            if elb_mask is not None:
                if elb_mask[row + other]:
                    stats.elb_pruned += 1
                    continue
            if llb_mask is not None:
                stats.llb_evaluations += 1
                if llb_mask[row + other]:
                    stats.llb_pruned += 1
                    continue
            stats.hausdorff_evaluations += 1
            distance = flow_distance(
                engine, flow_list[index], flow_list[other], cutoff=eps
            )
            if distance <= eps:
                found.append(other)
        return found

    # "The density-based clustering ... always starts each round with the
    # flow cluster whose representative route is the longest" (III-C2).
    order = sorted(
        range(len(flow_list)),
        key=lambda i: (-flow_list[i].route_length, i),
    )
    labels = dbscan(len(flow_list), region_query, config.min_pts, order=order)

    clusters = []
    for cluster_id, indices in enumerate(clusters_from_labels(labels)):
        clusters.append(
            TrajectoryCluster(cluster_id, [flow_list[i] for i in indices])
        )
    # With min_pts > 1 DBSCAN can leave noise flows; the paper sets no
    # minimum cardinality, but when a caller raises min_pts we still return
    # each leftover flow as its own singleton cluster to stay lossless.
    clustered = {i for indices in clusters_from_labels(labels) for i in indices}
    for index in range(len(flow_list)):
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
        "neat.phase3.pair_checks", "Candidate flow pairs examined in region queries"
    ).inc(stats.pair_checks)
    metrics.counter(
        "neat.phase3.elb_pruned", "Pairs discarded by the Euclidean lower bound"
    ).inc(stats.elb_pruned)
    metrics.counter(
        "neat.phase3.llb_evaluations",
        "ELB survivors checked against the landmark lower bound",
    ).inc(stats.llb_evaluations)
    metrics.counter(
        "neat.phase3.llb_pruned",
        "Pairs discarded by the landmark lower bound after surviving the ELB",
    ).inc(stats.llb_pruned)
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
