"""Equivalence suite: CSR flat-array searches vs the dict-of-lists reference.

Property-style checks over randomly generated networks: CSR Dijkstra,
bidirectional Dijkstra and the module-level dict-of-lists walkers of
:mod:`repro.roadnet.shortest_path` must return identical distances and
routes, and the CSR-backed engine must run exactly one search per
distinct pair.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import NoPathError, UnknownNodeError
from repro.roadnet import (
    CSRGraph,
    INFINITY,
    RoadNetwork,
    ShortestPathEngine,
    network_from_edges,
)
from repro.roadnet.geometry import Point
from repro.roadnet.shortest_path import (
    dijkstra_distance,
    dijkstra_distance_counted,
    dijkstra_single_source,
    shortest_route,
)


def random_network(
    seed: int, rows: int = 7, cols: int = 8, keep: float = 0.85
) -> RoadNetwork:
    """A random connected-ish jittered grid (float lengths, no ties)."""
    rng = random.Random(seed)
    points = [
        (c * 100 + rng.uniform(-25, 25), r * 100 + rng.uniform(-25, 25))
        for r in range(rows)
        for c in range(cols)
    ]
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols and rng.random() < keep:
                edges.append((i, i + 1))
            if r + 1 < rows and rng.random() < keep:
                edges.append((i, i + cols))
    return network_from_edges(points, edges, name=f"random-{seed}")


def sample_pairs(network: RoadNetwork, seed: int, count: int = 60):
    rng = random.Random(seed * 31 + 7)
    ids = network.node_ids()
    return [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]


class TestConstruction:
    def test_shape_invariants(self):
        net = random_network(1)
        graph = net.csr(directed=False)
        assert graph.node_count == net.junction_count
        # Undirected: every segment appears in both directions.
        assert graph.edge_count == 2 * net.segment_count
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == graph.edge_count
        assert all(
            graph.indptr[i] <= graph.indptr[i + 1]
            for i in range(graph.node_count)
        )

    def test_directed_respects_one_way(self):
        net = RoadNetwork()
        a = net.add_junction(Point(0, 0))
        b = net.add_junction(Point(100, 0))
        net.add_segment(a, b, bidirectional=False)
        graph = net.csr(directed=True)
        assert graph.distance_counted(a, b)[0] == pytest.approx(100.0)
        assert graph.distance_counted(b, a)[0] == INFINITY
        assert graph.bidirectional_distance_counted(a, b)[0] == pytest.approx(100.0)
        assert graph.bidirectional_distance_counted(b, a)[0] == INFINITY

    def test_unknown_node_raises(self):
        net = random_network(2)
        graph = net.csr()
        with pytest.raises(UnknownNodeError):
            graph.distance_counted(0, 10_000)

    def test_snapshot_cached_and_invalidated(self):
        net = random_network(3)
        first = net.csr()
        assert net.csr() is first  # memoized
        node = net.add_junction(Point(-500.0, -500.0))
        net.add_segment(node, 0)
        rebuilt = net.csr()
        assert rebuilt is not first
        assert rebuilt.node_count == first.node_count + 1

    def test_snapshot_pickles(self):
        net = random_network(4)
        graph = net.csr()
        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, CSRGraph)
        for a, b in sample_pairs(net, 4, count=10):
            assert clone.distance_counted(a, b) == graph.distance_counted(a, b)

    def test_network_pickle_drops_snapshot_cache(self):
        net = random_network(5)
        net.csr()
        clone = pickle.loads(pickle.dumps(net))
        assert clone._csr_cache == {}
        # ...and rebuilding on the clone matches the original.
        assert clone.csr().single_source(0) == net.csr().single_source(0)


@pytest.mark.parametrize("seed", [11, 22, 33, 44])
class TestDistanceEquivalence:
    def test_point_to_point_matches_dict_backend(self, seed):
        net = random_network(seed)
        graph = net.csr()
        for a, b in sample_pairs(net, seed):
            legacy = dijkstra_distance(net, a, b)
            uni, _ = graph.distance_counted(a, b)
            bidi, _ = graph.bidirectional_distance_counted(a, b)
            # Unidirectional sums the same floats in the same order.
            assert uni == legacy
            if legacy == INFINITY:
                assert bidi == INFINITY
            else:
                assert bidi == pytest.approx(legacy, rel=1e-12)

    def test_single_source_matches_dict_backend(self, seed):
        net = random_network(seed)
        graph = net.csr()
        for source in net.node_ids()[:: max(1, net.junction_count // 8)]:
            assert graph.single_source(source) == dijkstra_single_source(
                net, source
            )

    def test_bounded_single_source_matches(self, seed):
        net = random_network(seed)
        graph = net.csr()
        for source in net.node_ids()[:: max(1, net.junction_count // 6)]:
            for bound in (150.0, 400.0, 900.0):
                assert graph.single_source(
                    source, max_distance=bound
                ) == dijkstra_single_source(net, source, max_distance=bound)

    def test_bounded_point_queries_agree_inside_bound(self, seed):
        net = random_network(seed)
        graph = net.csr()
        for a, b in sample_pairs(net, seed, count=40):
            exact = dijkstra_distance(net, a, b)
            for cutoff in (200.0, 600.0, 1500.0):
                bounded_dict, _ = dijkstra_distance_counted(
                    net, a, b, cutoff=cutoff
                )
                bounded_uni, _ = graph.distance_counted(a, b, cutoff=cutoff)
                bounded_bidi, _ = graph.bidirectional_distance_counted(
                    a, b, cutoff=cutoff
                )
                if exact <= cutoff:
                    assert bounded_dict == exact
                    assert bounded_uni == exact
                    assert bounded_bidi == pytest.approx(exact, rel=1e-12)
                else:
                    assert bounded_dict == INFINITY
                    assert bounded_uni == INFINITY
                    assert bounded_bidi == INFINITY

    def test_routes_match_legacy(self, seed):
        net = random_network(seed)
        graph = net.csr()
        for a, b in sample_pairs(net, seed, count=30):
            try:
                legacy = shortest_route(net, a, b, directed=False)
            except NoPathError:
                with pytest.raises(NoPathError):
                    graph.shortest_route(a, b)
                continue
            route = graph.shortest_route(a, b)
            assert route.length == legacy.length
            assert route.nodes == legacy.nodes
            assert route.sids == legacy.sids
            assert net.is_route(route.sids) or len(route.sids) == 0

    def test_engine_backends_agree(self, seed):
        """The CSR engine matches the dict-of-lists reference walker, and
        its memo runs one search per distinct unordered pair."""
        net = random_network(seed)
        engine = ShortestPathEngine(net)
        searched: set[tuple[int, int]] = set()
        repeats = 0
        for a, b in sample_pairs(net, seed, count=50):
            want, _ = dijkstra_distance_counted(net, a, b)
            got = engine.distance(a, b)
            if want == INFINITY:
                assert got == INFINITY
            else:
                assert got == pytest.approx(want, rel=1e-12)
            if a != b:
                key = (min(a, b), max(a, b))
                repeats += key in searched
                searched.add(key)
        assert engine.computations == len(searched)
        assert engine.cache_hits == repeats


class TestEngineBackendSelector:
    def test_bad_backend_rejected(self):
        # The engine has no backend selector: the keyword is unknown.
        net = random_network(6)
        with pytest.raises(TypeError):
            ShortestPathEngine(net, backend="dict")

    def test_default_backend_is_csr(self):
        net = random_network(7)
        engine = ShortestPathEngine(net)
        assert not hasattr(engine, "backend")
        assert net._csr_cache == {}
        ids = net.node_ids()
        engine.distance(ids[0], ids[-1])
        assert net._csr_cache  # the point query ran on the CSR snapshot

    def test_distance_many_matches_loop(self):
        net = random_network(8)
        pairs = sample_pairs(net, 8, count=40) + sample_pairs(net, 8, count=40)
        loop_engine = ShortestPathEngine(net)
        batch_engine = ShortestPathEngine(net)
        expected = [loop_engine.distance(a, b) for a, b in pairs]
        got = batch_engine.distance_many(pairs)
        assert got == expected
        assert batch_engine.computations == loop_engine.computations
        assert batch_engine.cache_hits == loop_engine.cache_hits
        assert batch_engine.nodes_expanded == loop_engine.nodes_expanded
