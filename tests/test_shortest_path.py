"""Unit tests for Dijkstra/A* routing and the caching engine."""

from __future__ import annotations

import math

import pytest

from repro.errors import NoPathError, UnknownNodeError
from repro.roadnet.builder import network_from_edges
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import (
    INFINITY,
    Route,
    ShortestPathEngine,
    dijkstra_distance,
    dijkstra_distance_counted,
    dijkstra_single_source,
    shortest_route,
)


@pytest.fixture
def square() -> RoadNetwork:
    """A unit square with one diagonal shortcut: 4 nodes, 5 edges."""
    return network_from_edges(
        [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        name="square",
    )


class TestRoute:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Route((1, 2, 3), (0,), 100.0)

    def test_reversed(self):
        route = Route((1, 2, 3), (10, 11), 200.0)
        back = route.reversed()
        assert back.nodes == (3, 2, 1)
        assert back.sids == (11, 10)
        assert back.length == 200.0
        assert back.source == 3 and back.target == 1


class TestDijkstraDistance:
    def test_direct_edge(self, square):
        assert dijkstra_distance(square, 0, 1) == pytest.approx(100.0)

    def test_diagonal_beats_perimeter(self, square):
        assert dijkstra_distance(square, 0, 2) == pytest.approx(math.hypot(100, 100))

    def test_same_node_is_zero(self, square):
        assert dijkstra_distance(square, 3, 3) == 0.0

    def test_symmetry_undirected(self, square):
        for a in range(4):
            for b in range(4):
                assert dijkstra_distance(square, a, b) == pytest.approx(
                    dijkstra_distance(square, b, a)
                )

    def test_unreachable_is_infinite(self):
        net = RoadNetwork()
        net.add_junction(Point(0, 0))
        net.add_junction(Point(10, 0))
        net.add_junction(Point(100, 100))
        net.add_segment(0, 1)
        assert dijkstra_distance(net, 0, 2) == INFINITY

    def test_unknown_node_raises(self, square):
        with pytest.raises(UnknownNodeError):
            dijkstra_distance(square, 0, 42)

    def test_respects_one_way(self):
        net = RoadNetwork()
        a = net.add_junction(Point(0, 0))
        b = net.add_junction(Point(100, 0))
        net.add_segment(a, b, bidirectional=False)
        assert dijkstra_distance(net, a, b, directed=True) == pytest.approx(100.0)
        assert dijkstra_distance(net, b, a, directed=True) == INFINITY
        # Undirected view ignores the restriction.
        assert dijkstra_distance(net, b, a, directed=False) == pytest.approx(100.0)


class TestSingleSource:
    def test_all_distances(self, square):
        dist = dijkstra_single_source(square, 0)
        assert dist[0] == 0.0
        assert dist[1] == pytest.approx(100.0)
        assert dist[2] == pytest.approx(math.hypot(100, 100))

    def test_max_distance_prunes(self, square):
        dist = dijkstra_single_source(square, 0, max_distance=100.0)
        assert set(dist) == {0, 1, 3}

    def test_bounded_agrees_with_unbounded_inside_bound(self, square):
        # Regression: the heap-push prune must not change any distance
        # that survives the bound — only drop nodes beyond it.
        full = dijkstra_single_source(square, 0)
        for bound in (0.0, 100.0, 150.0, 250.0, 1e9):
            bounded = dijkstra_single_source(square, 0, max_distance=bound)
            assert bounded == {
                node: d for node, d in full.items() if d <= bound
            }


class TestCutoff:
    def test_counted_cutoff_exact_inside(self, square):
        exact = dijkstra_distance(square, 1, 3)
        d, _ = dijkstra_distance_counted(square, 1, 3, cutoff=exact)
        assert d == exact

    def test_counted_cutoff_infinite_beyond(self, square):
        exact = dijkstra_distance(square, 1, 3)
        d, _ = dijkstra_distance_counted(square, 1, 3, cutoff=exact - 1.0)
        assert d == INFINITY

    def test_cutoff_reduces_expansions(self, square):
        _, full = dijkstra_distance_counted(square, 0, 2)
        _, pruned = dijkstra_distance_counted(square, 0, 2, cutoff=50.0)
        assert pruned <= full


class TestShortestRoute:
    def test_route_recovery(self, square):
        route = shortest_route(square, 1, 3)
        assert route.source == 1 and route.target == 3
        assert square.is_route(route.sids)
        assert route.length == pytest.approx(200.0)

    def test_route_uses_diagonal(self, square):
        route = shortest_route(square, 0, 2)
        assert route.sids == (4,)

    def test_trivial_route(self, square):
        route = shortest_route(square, 2, 2)
        assert route.nodes == (2,)
        assert route.sids == ()
        assert route.length == 0.0

    def test_no_path_raises(self):
        net = RoadNetwork()
        net.add_junction(Point(0, 0))
        net.add_junction(Point(10, 0))
        net.add_junction(Point(500, 500))
        net.add_segment(0, 1)
        with pytest.raises(NoPathError):
            shortest_route(net, 0, 2)

    def test_route_length_matches_dijkstra(self, square):
        for a in range(4):
            for b in range(4):
                route = shortest_route(square, a, b, directed=False)
                assert route.length == pytest.approx(
                    dijkstra_distance(square, a, b)
                )


class TestEngine:
    def test_caches_symmetric_pairs(self, square):
        engine = ShortestPathEngine(square, directed=False)
        d1 = engine.distance(0, 2)
        assert engine.computations == 1
        d2 = engine.distance(2, 0)
        assert engine.computations == 1  # symmetric hit, no new search
        assert d1 == d2

    def test_same_node_free(self, square):
        engine = ShortestPathEngine(square)
        assert engine.distance(1, 1) == 0.0
        assert engine.computations == 0

    def test_reset_counters_keeps_cache(self, square):
        engine = ShortestPathEngine(square)
        engine.distance(0, 3)
        engine.reset_counters()
        assert engine.computations == 0
        engine.distance(0, 3)
        assert engine.computations == 0  # cache retained

    def test_clear_drops_cache(self, square):
        engine = ShortestPathEngine(square)
        engine.distance(0, 3)
        engine.clear()
        engine.distance(0, 3)
        assert engine.computations == 1

    def test_directed_engine_not_symmetric(self):
        net = RoadNetwork()
        a = net.add_junction(Point(0, 0))
        b = net.add_junction(Point(100, 0))
        net.add_segment(a, b, bidirectional=False)
        engine = ShortestPathEngine(net, directed=True)
        assert engine.distance(a, b) == pytest.approx(100.0)
        assert engine.distance(b, a) == INFINITY
        assert engine.computations == 2


class TestEngineCutoff:
    """Bounded queries cache INFINITY separately from exact distances."""

    def test_finite_result_within_cutoff_is_exact_and_cached(self, square):
        engine = ShortestPathEngine(square)
        exact = dijkstra_distance(square, 1, 3)
        assert engine.distance(1, 3, cutoff=exact + 1.0) == exact
        assert engine.computations == 1
        # The finite bounded answer is exact, so unbounded hits cache.
        assert engine.distance(1, 3) == exact
        assert engine.computations == 1
        assert engine.cache_hits == 1

    def test_bounded_infinity_not_poisoning_unbounded(self, square):
        engine = ShortestPathEngine(square)
        exact = dijkstra_distance(square, 1, 3)
        assert engine.distance(1, 3, cutoff=exact / 2) == INFINITY
        assert engine.computations == 1
        # An unbounded query must recompute and find the real distance.
        assert engine.distance(1, 3) == exact
        assert engine.computations == 2
        # ...after which bounded queries are served from the exact cache
        # (the true distance is strictly more informative than INFINITY).
        assert engine.distance(1, 3, cutoff=exact / 2) == exact
        assert engine.computations == 2
        assert engine.cache_hits == 1

    def test_bounded_cache_reused_for_smaller_cutoffs(self, square):
        engine = ShortestPathEngine(square)
        exact = dijkstra_distance(square, 1, 3)
        assert engine.distance(1, 3, cutoff=exact / 2) == INFINITY
        # A tighter bound is answered by the recorded proven bound.
        assert engine.distance(1, 3, cutoff=exact / 4) == INFINITY
        assert engine.computations == 1
        assert engine.cache_hits == 1
        # A looser (still insufficient) bound needs a fresh search.
        assert engine.distance(1, 3, cutoff=exact * 0.9) == INFINITY
        assert engine.computations == 2

    def test_truly_disconnected_with_cutoff(self):
        net = RoadNetwork()
        net.add_junction(Point(0, 0))
        net.add_junction(Point(10, 0))
        net.add_junction(Point(900, 900))
        net.add_segment(0, 1)
        engine = ShortestPathEngine(net)
        assert engine.distance(0, 2, cutoff=50.0) == INFINITY
        assert engine.distance(0, 2) == INFINITY

    def test_clear_drops_bounded_cache(self, square):
        engine = ShortestPathEngine(square)
        engine.distance(1, 3, cutoff=10.0)
        engine.clear()  # zeroes counters and drops the bounded table
        engine.distance(1, 3, cutoff=10.0)
        assert engine.computations == 1  # searched again, no cached verdict
        assert engine.cache_hits == 0
