"""Phase 1, step 1: partitioning trajectories into t-fragments.

Implements Section III-A1 of the paper.  Every pair of consecutive samples
is inspected: when their road segments differ, the junction crossings
between them are recovered (directly for contiguous segments, via
path inference otherwise; either way once per segment pair and network)
and the crossed junctions are inserted as new, specially-marked points.
The augmented trajectory is then split at those junction points into
:class:`~repro.core.model.TFragment` objects, each of which lies entirely
on one road segment and keeps the source trajectory's identity, route and
direction.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import UnknownSegmentError
from ..gcpause import gc_paused
from ..mapmatch.path_inference import crossing_row
from ..roadnet.network import RoadNetwork
from .model import Location, TFragment, Trajectory


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
    """Partition one trajectory into its sequence of t-fragments.

    Args:
        network: The road network the trajectory lives on.
        trajectory: A network-matched trajectory (every sample has a sid).
        keep_interior_points: When ``False`` (the paper's behaviour), each
            fragment keeps only its boundary points — the trajectory's
            first/last sample and inserted junction points.  When ``True``,
            original interior samples are retained as well.

    Returns:
        The fragments in travel order.  Consecutive fragments lie on
        adjacent road segments by construction.
    """
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


@gc_paused
def fragment_all(
    network: RoadNetwork,
    trajectories: Iterable[Trajectory],
    keep_interior_points: bool = False,
) -> list[TFragment]:
    """Fragment every trajectory, concatenating results in input order."""
    fragments: list[TFragment] = []
    for trajectory in trajectories:
        fragments.extend(
            fragment_trajectory(network, trajectory, keep_interior_points)
        )
    return fragments
