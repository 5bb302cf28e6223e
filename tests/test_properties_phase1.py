"""Property-based tests (hypothesis): the one-pass fragmenter equals the reference.

:func:`repro.core.fragmentation.fragment_trajectory` fragments a
trajectory in one pass, keeping only each fragment's boundary points.
``reference_phase1.fragment_trajectory`` builds the whole augmented
trajectory first and splits it.  On random small multigraphs (parallel
twins, one-way segments, disconnected components) and random grids,
over trajectories that skip segments, jump between non-adjacent ones and
repeat samples on one segment, both must:

* return equal fragments, under both ``keep_interior_points`` values;
* raise the same exception (:class:`UnknownSegmentError` for a sample on
  a segment the network lacks, :class:`NoPathError` between disconnected
  segments);
* move the crossing table's ``searches`` and ``lookups`` by the same
  amounts, which :func:`~repro.core.base_cluster.form_base_clusters`
  publishes as ``neat.phase1.crossing_searches``/``crossing_lookups``.
"""

from __future__ import annotations

import pickle

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import fragmentation
from repro.core.model import Location, Trajectory
from repro.errors import NoPathError, UnknownSegmentError
from repro.roadnet.generators import generate_grid_network
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork

import reference_phase1
from test_properties_network import grid_configs, workloads
from test_properties_routing import multigraphs

#: Gaps between consecutive samples, ties included.
TIME_STEPS = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 30.0])
#: Where on its segment's chord a sample lies.
FRACTIONS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def trajectories_on(draw, network: RoadNetwork, trid: int) -> Trajectory:
    """Samples on random segments: repeats, skips and non-adjacent jumps."""
    visits = draw(st.lists(
        st.tuples(
            st.sampled_from(network.segment_ids()),
            st.integers(1, 3),  # samples on this visit
        ),
        min_size=1, max_size=7,
    ))
    locations, t = [], 0.0
    for sid, repeats in visits:
        u, v = network.segment_endpoints(sid)
        for _ in range(repeats):
            f = draw(FRACTIONS)
            t += draw(TIME_STEPS)
            locations.append(
                Location(sid, u.x + f * (v.x - u.x), u.y + f * (v.y - u.y), t)
            )
    assume(len(locations) >= 2)
    return Trajectory(trid, tuple(locations))


@st.composite
def phase1_inputs(draw) -> tuple[RoadNetwork, list[Trajectory]]:
    """A random multigraph or grid and a few trajectories on it."""
    if draw(st.booleans()):
        network = draw(multigraphs())
    else:
        network = generate_grid_network(draw(grid_configs))
    assume(network.segment_count > 0)
    count = draw(st.integers(1, 4))
    trajectories = [draw(trajectories_on(network, trid)) for trid in range(count)]
    return network, trajectories


def _outcomes(fragment, network, trajectories) -> tuple[list, tuple[int, int]]:
    """Each trajectory's fragments (or error) on a cold copy of ``network``.

    Also returns the copy's crossing-table ``(searches, lookups)`` after
    both ``keep_interior_points`` passes.
    """
    network = pickle.loads(pickle.dumps(network))  # arrives with no table
    outcomes = []
    for keep in (False, True):
        for trajectory in trajectories:
            try:
                outcomes.append(fragment(network, trajectory, keep))
            except (UnknownSegmentError, NoPathError) as error:
                outcomes.append((type(error), error.args))
    table = network.crossing_table()
    return outcomes, (table.searches, table.lookups)


def _assert_same(network, trajectories) -> list:
    production = _outcomes(fragmentation.fragment_trajectory, network, trajectories)
    reference = _outcomes(reference_phase1.fragment_trajectory, network, trajectories)
    assert production == reference
    return production[0]


class TestOnePassEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(phase1_inputs())
    def test_random_trajectories(self, inputs):
        network, trajectories = inputs
        _assert_same(network, trajectories)

    @settings(max_examples=60, deadline=None)
    @given(phase1_inputs(), st.data())
    def test_unknown_segment(self, inputs, data):
        network, trajectories = inputs
        trajectory = data.draw(st.sampled_from(trajectories))
        index = data.draw(st.integers(0, len(trajectory.locations) - 1))
        prefix = trajectory.locations[:index]
        if len(prefix) >= 2:
            try:  # a no-path pair ahead of the unknown sample hides it
                reference_phase1.fragment_trajectory(
                    network, Trajectory(trajectory.trid, prefix)
                )
            except NoPathError:
                assume(False)
        unknown = max(network.segment_ids()) + 1
        locations = list(trajectory.locations)
        locations[index] = locations[index]._replace(sid=unknown)
        broken = Trajectory(trajectory.trid, tuple(locations))
        outcomes = _assert_same(network, [*trajectories, broken])
        assert (UnknownSegmentError, UnknownSegmentError(unknown).args) in outcomes

    def test_disconnected_segments(self):
        network = RoadNetwork()
        for x, y in ((0, 0), (100, 0), (0, 5000), (100, 5000)):
            network.add_junction(Point(float(x), float(y)))
        a = network.add_segment(0, 1)
        b = network.add_segment(2, 3)
        trajectory = Trajectory(
            0, (Location(a, 50.0, 0.0, 0.0), Location(b, 50.0, 5000.0, 9.0))
        )
        outcomes = _assert_same(network, [trajectory])
        assert outcomes[0][0] is NoPathError

    @settings(max_examples=15, deadline=None)
    @given(workloads())
    def test_simulated_traces(self, workload):
        network, dataset = workload
        _assert_same(network, list(dataset))

