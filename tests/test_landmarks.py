"""Tests for ALT landmark distance acceleration."""

from __future__ import annotations

import pytest

from repro.roadnet.generators import GridConfig, generate_grid_network
from repro.roadnet.landmarks import LandmarkOracle
from repro.roadnet.shortest_path import dijkstra_distance


@pytest.fixture(scope="module")
def net():
    return generate_grid_network(GridConfig(rows=10, cols=10, seed=44))


@pytest.fixture(scope="module")
def oracle(net):
    return LandmarkOracle(net, landmark_count=6)


class TestConstruction:
    def test_landmark_count(self, net):
        oracle = LandmarkOracle(net, landmark_count=4)
        assert len(oracle.landmarks) == 4
        assert len(set(oracle.landmarks)) == 4

    def test_deterministic(self, net):
        a = LandmarkOracle(net, landmark_count=4)
        b = LandmarkOracle(net, landmark_count=4)
        assert a.landmarks == b.landmarks

    def test_rejects_zero_landmarks(self, net):
        with pytest.raises(ValueError):
            LandmarkOracle(net, landmark_count=0)

    def test_landmarks_spread_out(self, net, oracle):
        # Farthest-point sampling: consecutive landmarks are far apart.
        first, second = oracle.landmarks[:2]
        assert dijkstra_distance(net, first, second) > 500.0


class TestLowerBound:
    def test_bound_never_exceeds_distance(self, net, oracle):
        nodes = net.node_ids()
        for source in nodes[::17]:
            for target in nodes[::23]:
                bound = oracle.lower_bound(source, target)
                exact = dijkstra_distance(net, source, target)
                assert bound <= exact + 1e-6

    def test_bound_tighter_than_euclidean_usually(self, net, oracle):
        # On road networks the ALT bound dominates Euclidean for most
        # pairs; require it on average.
        nodes = net.node_ids()
        alt_total = euclid_total = 0.0
        for source in nodes[::13]:
            for target in nodes[::19]:
                alt_total += oracle.lower_bound(source, target)
                euclid_total += net.node_point(source).distance_to(
                    net.node_point(target)
                )
        assert alt_total >= euclid_total

    def test_bound_zero_for_same_node(self, oracle, net):
        node = net.node_ids()[0]
        assert oracle.lower_bound(node, node) == 0.0


class TestAltDistance:
    def test_matches_dijkstra(self, net, oracle):
        nodes = net.node_ids()
        for source in nodes[::21]:
            for target in nodes[::27]:
                assert oracle.distance(source, target) == pytest.approx(
                    dijkstra_distance(net, source, target)
                )

    def test_settles_fewer_nodes_than_plain_dijkstra(self, net, oracle):
        # Plain Dijkstra settles roughly every node closer than the
        # target; goal-directed ALT should explore materially less.
        from repro.roadnet.shortest_path import dijkstra_single_source

        nodes = net.node_ids()
        source, target = nodes[0], nodes[-1]
        exact = dijkstra_distance(net, source, target)
        plain_settled = sum(
            1 for d in dijkstra_single_source(net, source).values() if d < exact
        )
        assert oracle.settled_estimate(source, target) < plain_settled
