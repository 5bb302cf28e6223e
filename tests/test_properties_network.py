"""Property-based tests over generated road networks and NEAT phases.

Hypothesis drives the *generator parameters* (grid shape, seed, workload
size) and the tests assert structural invariants that must hold for every
generated network/trace/clustering combination — the ELB inequality, the
losslessness of Phase 1 and Phase 2, route well-formedness of flows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_cluster import form_base_clusters
from repro.core.config import NEATConfig
from repro.core.flow_formation import form_flow_clusters
from repro.core.fragmentation import fragment_all
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.roadnet.generators import GridConfig, generate_grid_network
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import ShortestPathEngine

grid_configs = st.builds(
    GridConfig,
    rows=st.integers(min_value=4, max_value=9),
    cols=st.integers(min_value=4, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def workloads(draw):
    config = draw(grid_configs)
    network = generate_grid_network(config)
    object_count = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    dataset = simulate_dataset(
        network, SimulationConfig(object_count=object_count, seed=seed)
    )
    return network, dataset


class TestNetworkProperties:
    @given(grid_configs)
    @settings(max_examples=15, deadline=None)
    def test_generated_network_is_connected(self, config):
        network = generate_grid_network(config)
        reachable = network.csr().single_source(network.node_ids()[0])
        assert len(reachable) == network.junction_count

    @given(grid_configs, st.data())
    @settings(max_examples=15, deadline=None)
    def test_euclidean_lower_bound_property(self, config, data):
        """The inequality justifying ELB: d_E(a, b) <= d_N(a, b)."""
        network = generate_grid_network(config)
        nodes = network.node_ids()
        a = data.draw(st.sampled_from(nodes))
        b = data.draw(st.sampled_from(nodes))
        euclid = network.node_point(a).distance_to(network.node_point(b))
        net_dist = network.csr().bidirectional_distance_counted(a, b)[0]
        assert euclid <= net_dist + 1e-6

    @given(grid_configs, st.data())
    @settings(max_examples=10, deadline=None)
    def test_network_distance_triangle_inequality(self, config, data):
        network = generate_grid_network(config)
        engine = ShortestPathEngine(network)
        nodes = network.node_ids()
        a, b, c = (data.draw(st.sampled_from(nodes)) for _ in range(3))
        assert engine.distance(a, c) <= (
            engine.distance(a, b) + engine.distance(b, c) + 1e-6
        )


def common_junction_reference(network: RoadNetwork, sid_a: int, sid_b: int):
    """``I(e_i, e_j)`` by set intersection: the reference for the
    allocation-free :meth:`RoadNetwork.common_junction`."""
    shared = sorted(
        set(network.segment(sid_a).endpoints)
        & set(network.segment(sid_b).endpoints)
    )
    return shared[0] if shared else None


@st.composite
def multigraphs(draw):
    """Small networks whose random edges include parallel segments."""
    network = RoadNetwork()
    nodes = [
        network.add_junction(Point(100.0 * i, 37.0 * (i % 3)))
        for i in range(draw(st.integers(min_value=2, max_value=6)))
    ]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda edge: edge[0] != edge[1]
        ),
        min_size=1, max_size=12,
    ))
    for u, v in edges:
        network.add_segment(u, v, length=250.0)
    return network


class TestCommonJunction:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_set_reference_on_every_pair(self, network):
        sids = [segment.sid for segment in network.segments()]
        for a in sids:
            for b in sids:
                assert network.common_junction(a, b) == (
                    common_junction_reference(network, a, b)
                )

    @given(st.booleans(), st.booleans())
    def test_parallel_edges_give_the_lower_node(self, flip_a, flip_b):
        network = RoadNetwork()
        low = network.add_junction(Point(0, 0))
        high = network.add_junction(Point(100, 0))
        s1 = network.add_segment(*((high, low) if flip_a else (low, high)))
        s2 = network.add_segment(
            *((high, low) if flip_b else (low, high)), length=150.0
        )
        assert network.common_junction(s1, s2) == low
        assert common_junction_reference(network, s1, s2) == low


class TestPhaseInvariants:
    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_fragments_partition_preserves_trajectories(self, workload):
        network, dataset = workload
        fragments = fragment_all(network, dataset.trajectories)
        # Every trajectory produces at least one fragment and every
        # fragment's sid exists in the network.
        assert {f.trid for f in fragments} == {tr.trid for tr in dataset}
        for fragment in fragments:
            assert network.has_segment(fragment.sid)

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_consecutive_fragments_are_adjacent(self, workload):
        network, dataset = workload
        from repro.core.fragmentation import fragment_trajectory

        for trajectory in dataset:
            fragments = fragment_trajectory(network, trajectory)
            for a, b in zip(fragments, fragments[1:]):
                assert a.sid == b.sid or network.are_adjacent(a.sid, b.sid)

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_phase2_is_lossless_partition_of_base_clusters(self, workload):
        network, dataset = workload
        base = form_base_clusters(network, dataset.trajectories)
        result = form_flow_clusters(network, base, NEATConfig(min_card=0))
        assigned = [sid for flow in result.all_flows for sid in flow.sids]
        assert sorted(assigned) == sorted(c.sid for c in base)
        assert len(assigned) == len(set(assigned))

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_flows_are_routes(self, workload):
        network, dataset = workload
        base = form_base_clusters(network, dataset.trajectories)
        result = form_flow_clusters(network, base, NEATConfig(min_card=0))
        for flow in result.all_flows:
            assert network.is_route(flow.sids) or len(flow.sids) == 1

    @given(workloads())
    @settings(max_examples=8, deadline=None)
    def test_refinement_is_lossless_partition_of_flows(self, workload):
        from repro.core.refinement import refine_flow_clusters

        network, dataset = workload
        base = form_base_clusters(network, dataset.trajectories)
        formation = form_flow_clusters(network, base, NEATConfig(min_card=0))
        clusters = refine_flow_clusters(
            network, formation.flows, NEATConfig(min_card=0, eps=400.0)
        )
        clustered = [id(f) for c in clusters for f in c.flows]
        assert sorted(clustered) == sorted(id(f) for f in formation.flows)

    @given(workloads())
    @settings(max_examples=8, deadline=None)
    def test_elb_never_changes_refinement_result(self, workload):
        from repro.core.refinement import refine_flow_clusters

        network, dataset = workload
        base = form_base_clusters(network, dataset.trajectories)
        formation = form_flow_clusters(network, base, NEATConfig(min_card=0))

        def shapes(use_elb):
            clusters = refine_flow_clusters(
                network,
                formation.flows,
                NEATConfig(min_card=0, eps=350.0, use_elb=use_elb),
            )
            return sorted(
                tuple(sorted(tuple(f.sids) for f in c.flows)) for c in clusters
            )

        assert shapes(True) == shapes(False)


class TestSerializationProperties:
    @given(grid_configs)
    @settings(max_examples=10, deadline=None)
    def test_network_roundtrip(self, config):
        from repro.roadnet.io import network_from_dict, network_to_dict

        network = generate_grid_network(config)
        restored = network_from_dict(network_to_dict(network))
        assert restored.segment_count == network.segment_count
        assert restored.total_length() == network.total_length()

    @given(workloads())
    @settings(max_examples=8, deadline=None)
    def test_dataset_roundtrip(self, workload):
        from repro.mobisim.io import dataset_from_dict, dataset_to_dict

        _network, dataset = workload
        restored = dataset_from_dict(dataset_to_dict(dataset))
        assert restored.total_points == dataset.total_points
        for a, b in zip(restored, dataset):
            assert a == b
