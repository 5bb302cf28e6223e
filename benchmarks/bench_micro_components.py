"""Micro-benchmarks of the building blocks behind the paper's numbers.

Not a table/figure per se, but the component costs the paper's analysis
reasons about: point scanning (Phase 1's bottleneck), netflow evaluation
and flow growth, shortest-path search (Phase 3's unit cost vs the O(1) Euclidean check),
and the TraClus segment distance that its grouping pays O(n^2) times.
"""

from __future__ import annotations

import random

from repro.core.base_cluster import form_base_clusters, netflow
from repro.core.config import NEATConfig
from repro.core.flow_formation import form_flow_clusters
from repro.core.fragmentation import fragment_all
from repro.core.model import Location, Trajectory
from repro.core.refinement import flow_distance
from repro.experiments.workloads import WorkloadSpec, build_dataset, build_network
from repro.roadnet.builder import line_network
from repro.roadnet.geometry import Point
from repro.roadnet.shortest_path import ShortestPathEngine
from repro.traclus.distance import segment_distance
from repro.traclus.model import LineSegment


def _workload():
    network = build_network("ATL")
    dataset = build_dataset(network, WorkloadSpec("ATL", 100))
    return network, dataset


def bench_fragmentation(benchmark):
    """Phase 1 step 1: junction insertion + fragment extraction."""
    network, dataset = _workload()
    fragments = benchmark(lambda: fragment_all(network, dataset.trajectories))
    assert fragments


def bench_base_cluster_formation(benchmark):
    """Phase 1 end-to-end."""
    network, dataset = _workload()
    clusters = benchmark(
        lambda: form_base_clusters(network, dataset.trajectories)
    )
    assert clusters


def bench_netflow(benchmark):
    """Definition 5: one netflow evaluation between two base clusters."""
    network, dataset = _workload()
    clusters = form_base_clusters(network, dataset.trajectories)
    a, b = clusters[0], clusters[1]
    benchmark(lambda: netflow(a, b))


def _long_flow_input():
    """A 160-segment line crossed by 300 long trips, as base clusters.

    Every trip enters within the first 40 segments and leaves within the
    last 40, so Phase 2 grows one flow of 160 members, each shared by
    most of the 300 trips.
    """
    network = line_network(160)
    rng = random.Random(7)
    trajectories = []
    for trid in range(300):
        sids = range(rng.randrange(0, 40), rng.randrange(120, 160) + 1)
        trajectories.append(Trajectory(trid, tuple(
            Location(sid, 100.0 * sid + 50.0, 0.0, 10.0 * step)
            for step, sid in enumerate(sids)
        )))
    return network, form_base_clusters(network, trajectories)


def bench_flow_formation(benchmark):
    """Phase 2 growing one 160-member flow.

    Each step reads the netflow between the growing flow and each
    candidate, so a flow whose participant set is rebuilt from its
    members on every read makes this quadratic in the flow's length.
    """
    network, clusters = _long_flow_input()
    config = NEATConfig(min_card=0)
    result = benchmark(lambda: form_flow_clusters(network, clusters, config))
    assert max(len(flow) for flow in result.all_flows) >= 100


def bench_dijkstra_node_pair(benchmark):
    """One shortest-path search (the cost ELB avoids).

    The bidirectional CSR search an uncached engine query runs.
    """
    network, _dataset = _workload()
    nodes = network.node_ids()
    source, target = nodes[0], nodes[-1]
    graph = network.csr()
    distance, _settled = benchmark(
        lambda: graph.bidirectional_distance_counted(source, target)
    )
    assert distance > 0


def bench_euclidean_check(benchmark):
    """The O(1) Euclidean comparison that replaces a Dijkstra run."""
    network, _dataset = _workload()
    nodes = network.node_ids()
    a = network.node_point(nodes[0])
    b = network.node_point(nodes[-1])
    benchmark(lambda: a.distance_to(b))


def bench_modified_hausdorff(benchmark):
    """Equation 5 with a warm shortest-path cache."""
    from repro.core.config import NEATConfig
    from repro.core.pipeline import NEAT

    network, dataset = _workload()
    result = NEAT(network, NEATConfig(min_card=0)).run_flow(dataset)
    flows = result.flows[:2]
    if len(flows) < 2:
        flows = result.flows + result.noise_flows
    engine = ShortestPathEngine(network)
    benchmark(lambda: flow_distance(engine, flows[0], flows[1]))


def bench_traclus_segment_distance(benchmark):
    """The three-component distance TraClus pays O(n^2) times."""
    a = LineSegment(0, Point(0.0, 0.0), Point(100.0, 5.0))
    b = LineSegment(1, Point(10.0, 20.0), Point(110.0, 18.0))
    benchmark(lambda: segment_distance(a, b))
