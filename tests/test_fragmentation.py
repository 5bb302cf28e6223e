"""Unit tests for Phase 1 t-fragment extraction."""

from __future__ import annotations

import pytest

from repro.core.fragmentation import fragment_all, fragment_trajectory
from repro.core.model import Location, Trajectory

from conftest import trajectory_through


def junction_points(fragments):
    """Every fragment boundary point that is an inserted junction point."""
    return [l for f in fragments for l in f.locations if l.is_junction]


class TestInsertJunctionPoints:
    """The junction points the fragmenter inserts at each crossing."""

    def test_same_segment_inserts_nothing(self, line3):
        tr = trajectory_through(line3, 0, [0])
        fragments = fragment_trajectory(line3, tr)
        assert fragments[0].locations == (tr.locations[0], tr.locations[-1])
        assert junction_points(fragments) == []

    def test_adjacent_segments_insert_shared_junction(self, line3):
        tr = trajectory_through(line3, 0, [0, 1])
        first, second = fragment_trajectory(line3, tr)
        # One crossing -> two co-located marked points (closing/opening).
        assert junction_points([first, second]) == [first.last, second.first]
        assert first.last.node_id == second.first.node_id == 1
        assert first.last.sid == 0  # closes segment 0
        assert second.first.sid == 1  # opens segment 1
        assert first.last.point == second.first.point
        assert first.last.t == second.first.t

    def test_skipped_segment_inserts_both_crossings(self, line3):
        # Samples on segments 0 and 2 only: the object crossed segment 1.
        tr = Trajectory(
            0,
            (
                Location(0, 50.0, 0.0, 0.0),
                Location(2, 250.0, 0.0, 30.0),
            ),
        )
        fragments = fragment_trajectory(line3, tr)
        assert [f.sid for f in fragments] == [0, 1, 2]
        junction_nodes = [l.node_id for l in junction_points(fragments)]
        assert junction_nodes == [1, 1, 2, 2]

    def test_junction_timestamps_interpolated(self, line3):
        tr = Trajectory(
            0, (Location(0, 50.0, 0.0, 0.0), Location(2, 250.0, 0.0, 30.0))
        )
        fragments = fragment_trajectory(line3, tr)
        times = [l.t for f in fragments for l in f.locations]
        assert times == sorted(times)
        junction_times = sorted({l.t for l in junction_points(fragments)})
        assert junction_times == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_junction_coordinates_are_node_positions(self, line3):
        tr = trajectory_through(line3, 0, [0, 1, 2])
        junctions = junction_points(fragment_trajectory(line3, tr))
        assert len(junctions) == 4
        for location in junctions:
            assert location.point == line3.node_point(location.node_id)


class TestFragmentTrajectory:
    def test_single_segment_single_fragment(self, line3):
        fragments = fragment_trajectory(line3, trajectory_through(line3, 7, [0]))
        assert len(fragments) == 1
        assert fragments[0].sid == 0
        assert fragments[0].trid == 7

    def test_route_gives_one_fragment_per_segment(self, line3):
        fragments = fragment_trajectory(line3, trajectory_through(line3, 0, [0, 1, 2]))
        assert [f.sid for f in fragments] == [0, 1, 2]

    def test_consecutive_fragments_adjacent(self, line3):
        fragments = fragment_trajectory(line3, trajectory_through(line3, 0, [0, 1, 2]))
        for a, b in zip(fragments, fragments[1:]):
            assert line3.are_adjacent(a.sid, b.sid)

    def test_boundary_points_only_by_default(self, line3):
        # "only the first and the last point in the original trajectory are
        # kept, together with the newly inserted road junction points".
        tr = Trajectory(
            0,
            tuple(
                Location(0, x, 0.0, float(i))
                for i, x in enumerate((10.0, 30.0, 50.0, 70.0, 90.0))
            ),
        )
        fragments = fragment_trajectory(line3, tr)
        assert len(fragments) == 1
        assert len(fragments[0].locations) == 2
        assert fragments[0].first.x == 10.0
        assert fragments[0].last.x == 90.0

    def test_keep_interior_points(self, line3):
        tr = Trajectory(
            0,
            tuple(
                Location(0, x, 0.0, float(i))
                for i, x in enumerate((10.0, 30.0, 50.0))
            ),
        )
        fragments = fragment_trajectory(line3, tr, keep_interior_points=True)
        assert len(fragments[0].locations) == 3

    def test_middle_fragment_is_junction_to_junction(self, line3):
        fragments = fragment_trajectory(line3, trajectory_through(line3, 0, [0, 1, 2]))
        middle = fragments[1]
        assert middle.first.is_junction
        assert middle.last.is_junction
        assert middle.first.node_id == 1
        assert middle.last.node_id == 2

    def test_direction_preserved(self, line3):
        # Reverse route: direction of movement shows in fragment order and
        # in each fragment's first/last timestamps.
        fragments = fragment_trajectory(line3, trajectory_through(line3, 0, [2, 1, 0]))
        assert [f.sid for f in fragments] == [2, 1, 0]
        for fragment in fragments:
            assert fragment.first.t <= fragment.last.t

    def test_revisited_segment_gives_two_fragments(self, paper_example):
        # T3 leaves and re-enters n1n2 -> two distinct fragments on s1.
        t3 = paper_example.trajectories[2]
        fragments = fragment_trajectory(paper_example.network, t3)
        s1_fragments = [f for f in fragments if f.sid == paper_example.s1]
        assert len(s1_fragments) == 2


class TestFragmentAll:
    def test_concatenates_in_order(self, line3):
        trs = [
            trajectory_through(line3, 0, [0, 1]),
            trajectory_through(line3, 1, [2]),
        ]
        fragments = fragment_all(line3, trs)
        assert [f.trid for f in fragments] == [0, 0, 1]

    def test_empty_input(self, line3):
        assert fragment_all(line3, []) == []
