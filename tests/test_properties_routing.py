"""Property-based tests (hypothesis): CSR A* routes equal the reference A*.

:func:`repro.roadnet.shortest_path.shortest_route` runs A* on the CSR
snapshot; ``reference_sp.shortest_route`` is the dict-of-lists A* it
replaced.  On random small multigraphs built to provoke every tie-break
— parallel segments of equal length, lengths equal to the chord, one-way
segments, sids added out of order, isolated junctions — both must return
the same :class:`Route` for every ordered pair in both direction modes,
raise :class:`NoPathError` together, and raise :class:`UnknownNodeError`
together for a junction the network lacks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError, UnknownNodeError
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import shortest_route

from reference_sp import shortest_route as reference_route


@st.composite
def multigraphs(draw) -> RoadNetwork:
    """Junctions on a small integer grid, segments in shuffled sid order."""
    count = draw(st.integers(2, 8))
    cells = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=count, max_size=count, unique=True,
    ))
    links = draw(st.lists(
        st.tuples(
            st.integers(0, count - 1),
            st.integers(0, count - 1),
            st.sampled_from([0.0, 0.0, 1.0, 2.5]),  # slack over the chord
            st.booleans(),  # one-way
            st.integers(1, 2),  # copies: a second one is a parallel twin
        ),
        max_size=14,
    ))
    segments = [
        (u, v, slack, oneway)
        for u, v, slack, oneway, copies in links
        if u != v
        for _ in range(copies)
    ]
    sids = draw(st.permutations(range(len(segments))))
    network = RoadNetwork("multigraph")
    for node, (x, y) in enumerate(cells):
        network.add_junction(Point(100.0 * x, 100.0 * y), node_id=node)
    for sid, (u, v, slack, oneway) in zip(sids, segments):
        chord = network.node_point(u).distance_to(network.node_point(v))
        network.add_segment(
            u, v, length=chord + slack, bidirectional=not oneway, sid=sid
        )
    return network


def _route_or_error(route_fn, network, source, target, directed):
    try:
        return route_fn(network, source, target, directed=directed)
    except (NoPathError, UnknownNodeError) as error:
        return type(error)


class TestCSRRoutesMatchReference:
    @settings(max_examples=120, deadline=None)
    @given(multigraphs(), st.booleans())
    def test_every_pair_routes_identically(self, network, directed):
        nodes = network.node_ids()
        for source in nodes:
            for target in nodes:
                want = _route_or_error(
                    reference_route, network, source, target, directed
                )
                got = _route_or_error(
                    shortest_route, network, source, target, directed
                )
                assert got == want
                if not isinstance(got, type):
                    assert network.is_route(got.sids) or not got.sids

    @settings(max_examples=30, deadline=None)
    @given(multigraphs(), st.booleans())
    def test_unknown_junctions_raise_on_both_sides(self, network, directed):
        known = network.node_ids()[0]
        missing = max(network.node_ids()) + 1
        for source, target in ((missing, known), (known, missing)):
            for route_fn in (reference_route, shortest_route):
                with pytest.raises(UnknownNodeError):
                    route_fn(network, source, target, directed=directed)
