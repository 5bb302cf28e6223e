"""Phase 1's augmented-trajectory fragmenter: the reference for the one pass.

This is the literal reading of Section III-A1 the library ran before
:func:`repro.core.fragmentation.fragment_trajectory` became a single pass
that keeps only boundary points.  It first builds the whole augmented
trajectory — every sample with each crossed junction spliced in as a
closing and an opening point — and then splits that list wherever the
segment changes, dropping interior samples unless asked to keep them.

It shares only :func:`~repro.mapmatch.path_inference.crossing_row` with
the production fragmenter, so the crossing-table counters of the two
must move by the same amounts on the same input.
"""

from __future__ import annotations

from repro.core.model import Location, TFragment, Trajectory
from repro.errors import UnknownSegmentError
from repro.mapmatch.path_inference import crossing_row
from repro.roadnet.network import RoadNetwork


def insert_junction_points(
    network: RoadNetwork, trajectory: Trajectory
) -> list[Location]:
    """The trajectory's samples with junction crossings spliced in.

    Each crossing contributes *two* co-located junction points: one closing
    the segment being left and one opening the segment being entered, so a
    later linear scan can split exactly at segment changes.  Crossing
    timestamps are interpolated evenly between the surrounding samples.
    """
    augmented: list[Location] = []
    locations = trajectory.locations
    for i, current in enumerate(locations):
        if not network.has_segment(current.sid):
            raise UnknownSegmentError(current.sid)
        augmented.append(current)
        if i + 1 >= len(locations):
            break
        nxt = locations[i + 1]
        if current.sid == nxt.sid:
            continue
        row = crossing_row(network, current.sid, nxt.sid)
        count = len(row) // 2
        leaving_sid = current.sid
        for j in range(count):
            node_id = row[2 * j]
            sid = row[2 * j + 1]
            point = network.node_point(node_id)
            t = current.t + (nxt.t - current.t) * (j + 1) / (count + 1)
            augmented.append(
                Location(leaving_sid, point.x, point.y, t, node_id=node_id)
            )
            augmented.append(Location(sid, point.x, point.y, t, node_id=node_id))
            leaving_sid = sid
    return augmented


def fragment_trajectory(
    network: RoadNetwork,
    trajectory: Trajectory,
    keep_interior_points: bool = False,
) -> list[TFragment]:
    """Split the augmented trajectory into same-segment runs."""
    augmented = insert_junction_points(network, trajectory)
    fragments: list[TFragment] = []
    run: list[Location] = []
    for location in augmented:
        if run and location.sid != run[-1].sid:
            fragments.append(_make_fragment(trajectory.trid, run, keep_interior_points))
            run = []
        run.append(location)
    if run:
        fragments.append(_make_fragment(trajectory.trid, run, keep_interior_points))
    return fragments


def _make_fragment(
    trid: int, run: list[Location], keep_interior_points: bool
) -> TFragment:
    """Build a fragment from a same-sid run of locations."""
    if keep_interior_points or len(run) <= 2:
        kept = tuple(run)
    else:
        kept = (run[0], run[-1])
    return TFragment(trid=trid, sid=run[0].sid, locations=kept)
