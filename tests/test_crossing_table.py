"""The per-network crossing table behind Phase 1's junction insertion.

``RoadNetwork.crossing_table()`` memoizes, per ordered segment pair, the
junction crossings :func:`~repro.mapmatch.path_inference.infer_crossings`
infers.  These tests hold the memo to a tableless computation on the
dict-of-lists reference A*, and check its lifetime: a mutation
invalidates it, pickling drops it, and a warm network runs no searches.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.core.base_cluster import form_base_clusters
from repro.core.fragmentation import fragment_trajectory
from repro.core.model import Location, Trajectory
from repro.errors import NoPathError
from repro.mapmatch.path_inference import Crossing, infer_crossings
from repro.obs.metrics import MetricsRegistry
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork

import reference_phase1
from conftest import trajectory_through
from reference_sp import shortest_route as reference_route
from test_properties_routing import multigraphs


def reference_crossings(network: RoadNetwork, sid_from: int, sid_to: int):
    """Crossings as ``(node, sid)`` pairs, or ``NoPathError``, without a table.

    The shared junction for adjacent segments; otherwise the first
    strictly shortest of the four endpoint-to-endpoint routes, in
    endpoint order.
    """
    if sid_from == sid_to:
        return []
    junction = network.common_junction(sid_from, sid_to)
    if junction is not None:
        return [(junction, sid_to)]
    best = None
    for exit_node in network.segment(sid_from).endpoints:
        for entry_node in network.segment(sid_to).endpoints:
            try:
                route = reference_route(network, exit_node, entry_node, directed=False)
            except NoPathError:
                continue
            if best is None or route.length < best.length:
                best = route
    if best is None:
        return NoPathError
    return list(zip(best.nodes, best.sids)) + [(best.nodes[-1], sid_to)]


def table_crossings(network: RoadNetwork, sid_from: int, sid_to: int):
    try:
        return [(c.node_id, c.sid) for c in infer_crossings(network, sid_from, sid_to)]
    except NoPathError:
        return NoPathError


def kinked_line() -> RoadNetwork:
    """Segments 0..3 along nodes 0-1-2-3-4, with node 2 pushed off the line."""
    network = RoadNetwork("kinked")
    for x, y in ((0, 0), (100, 0), (200, 100), (300, 0), (400, 0)):
        network.add_junction(Point(float(x), float(y)))
    for node in range(4):
        network.add_segment(node, node + 1)
    return network


class TestTableMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(multigraphs())
    def test_cold_and_warm_answers_equal_reference(self, network):
        sids = network.segment_ids()
        pairs = [(a, b) for a in sids for b in sids]
        want = {pair: reference_crossings(network, *pair) for pair in pairs}
        cold = {pair: table_crossings(network, *pair) for pair in pairs}
        table = network.crossing_table()
        searches = table.searches
        warm = {pair: table_crossings(network, *pair) for pair in pairs}
        assert cold == want
        assert warm == want
        assert network.crossing_table() is table
        assert table.searches == searches  # every warm answer was a lookup
        assert len(table) == sum(1 for a, b in pairs if a != b)

    def test_disconnected_pair_stays_no_path(self):
        network = RoadNetwork()
        for x, y in ((0, 0), (100, 0), (0, 5000), (100, 5000)):
            network.add_junction(Point(float(x), float(y)))
        a = network.add_segment(0, 1)
        b = network.add_segment(2, 3)
        for _ in range(2):
            with pytest.raises(NoPathError):
                infer_crossings(network, a, b)
        assert network.crossing_table().entries == {(a, b): None}
        assert network.crossing_table().searches == 4


class TestTableLifetime:
    def test_repeat_requests_run_no_searches(self):
        network = kinked_line()
        first = infer_crossings(network, 0, 3)
        table = network.crossing_table()
        assert table.searches == 4 and table.lookups == 1
        assert infer_crossings(network, 0, 3) == first
        assert table.searches == 4 and table.lookups == 2

    def test_add_segment_invalidates(self):
        network = kinked_line()
        assert infer_crossings(network, 0, 3) == [
            Crossing(1, 1), Crossing(2, 2), Crossing(3, 3),
        ]
        stale = network.crossing_table()
        shortcut = network.add_segment(1, 3)  # 200 m against 2 x 141 m
        assert infer_crossings(network, 0, 3) == [
            Crossing(1, shortcut), Crossing(3, 3),
        ]
        assert network.crossing_table() is not stale
        assert network.crossing_table().version == network.version

    def test_add_junction_invalidates(self):
        network = kinked_line()
        infer_crossings(network, 0, 2)
        network.add_junction(Point(500.0, 500.0))
        assert len(network.crossing_table()) == 0

    def test_pickled_network_arrives_with_empty_table(self):
        network = kinked_line()
        infer_crossings(network, 0, 3)
        clone = pickle.loads(pickle.dumps(network))
        assert clone._crossings is None
        table = clone.crossing_table()
        assert (len(table), table.searches, table.lookups) == (0, 0, 0)
        assert infer_crossings(clone, 0, 3) == infer_crossings(network, 0, 3)
        assert len(network.crossing_table()) == 1  # the original kept its own

    def test_entries_are_flat_int_tuples(self):
        network = kinked_line()
        infer_crossings(network, 0, 3)
        infer_crossings(network, 0, 1)
        entries = network.crossing_table().entries
        assert entries == {(0, 3): (1, 1, 2, 2, 3, 3), (0, 1): (1, 1)}
        assert all(type(v) is int for row in entries.values() for v in row)


class TestPhase1Counters:
    def test_second_run_on_a_warm_network_runs_no_searches(self, line3):
        trajectories = [
            trajectory_through(line3, 0, [0, 2]),  # non-adjacent: 4 searches
            trajectory_through(line3, 1, [0, 1, 2]),
            trajectory_through(line3, 2, [0, 2]),
        ]
        runs = []
        for _ in range(2):
            metrics = MetricsRegistry()
            form_base_clusters(line3, trajectories, metrics=metrics)
            runs.append((
                metrics.value("neat.phase1.crossing_searches"),
                metrics.value("neat.phase1.crossing_lookups"),
            ))
        assert runs == [(4.0, 4.0), (0.0, 4.0)]

    def test_counters_are_deltas_per_call(self, line3):
        form_base_clusters(line3, [trajectory_through(line3, 0, [0, 2])])
        metrics = MetricsRegistry()
        form_base_clusters(
            line3, [trajectory_through(line3, 1, [2, 0])], metrics=metrics
        )
        assert metrics.value("neat.phase1.crossing_searches") == 4.0
        assert metrics.value("neat.phase1.crossing_lookups") == 1.0


def two_components() -> RoadNetwork:
    """Segments 0-1-2 in a row, and segment 3 on its own, 5 km away."""
    network = RoadNetwork("two-components")
    for x, y in ((0, 0), (100, 0), (200, 0), (300, 0), (0, 5000), (100, 5000)):
        network.add_junction(Point(float(x), float(y)))
    for u, v in ((0, 1), (1, 2), (2, 3), (4, 5)):
        network.add_segment(u, v)
    return network


def trip(trid: int, sids: list[int]) -> Trajectory:
    return Trajectory(trid, tuple(
        Location(sid, 50.0 + 100.0 * sid, 0.0, 10.0 * i)
        for i, sid in enumerate(sids)
    ))


class TestFragmenterHitPath:
    """Phase 1 reads table hits in place; misses and no-path entries go
    through ``crossing_row``, so errors and counters are the reference's."""

    def test_cached_no_path_pair_raises_again(self):
        network = two_components()
        for trid in range(2):  # the second trajectory hits the cached None
            with pytest.raises(NoPathError):
                fragment_trajectory(network, trip(trid, [1, 3]))
        table = network.crossing_table()
        assert table.entries == {(1, 3): None}
        assert (table.searches, table.lookups) == (4, 2)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_counters_match_reference_when_a_trajectory_raises(self, warm):
        # 0 -> 2 (4 searches cold) is a hit on the warm table; then
        # 2 -> 3 raises part-way, before the trajectory's last sample.
        deltas = []
        for fragment in (fragment_trajectory, reference_phase1.fragment_trajectory):
            network = two_components()
            if warm:
                fragment(network, trip(0, [0, 2]))
            table = network.crossing_table()
            before = (table.searches, table.lookups)
            with pytest.raises(NoPathError):
                fragment(network, trip(1, [0, 0, 2, 3, 2]))
            deltas.append((table.searches - before[0], table.lookups - before[1]))
        assert deltas[0] == deltas[1] == [(8, 2), (4, 2)][warm]
