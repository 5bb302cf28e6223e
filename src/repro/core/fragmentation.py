"""Phase 1, step 1: partitioning trajectories into t-fragments.

Implements Section III-A1 of the paper.  One pass over a trajectory's
samples follows the road segment they lie on.  Where two consecutive
samples lie on different segments, the junctions crossed between them are
recovered (directly for contiguous segments, via path inference
otherwise; either way once per segment pair and network) and each crossed
junction closes the open :class:`~repro.core.model.TFragment` and opens
the next one, as two co-located, specially-marked points.  A fragment
keeps only its boundary points — the trajectory's first or last sample,
or a junction point — so the paper's augmented trajectory is never
built; each fragment lies entirely on one road segment and keeps the
source trajectory's identity, route and direction.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import UnknownSegmentError
from ..gcpause import gc_paused
from ..mapmatch.path_inference import crossing_row
from ..roadnet.network import RoadNetwork
from .model import Location, TFragment, Trajectory


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

    Raises:
        UnknownSegmentError: for the first sample on a segment the network
            does not have.  Only the first sample is looked up here: a
            later sample either repeats its predecessor's segment, or its
            segment pair with the predecessor is already in the network's
            crossing table, or it is looked up by
            :func:`~repro.mapmatch.path_inference.crossing_row`.
        NoPathError: when two consecutive samples' segments are not
            connected.

    Each crossing's junction points are timed evenly between the two
    samples around it.  A crossing row between two different segments is
    never empty, so every fragment has at least two points.
    """
    trid = trajectory.trid
    locations = trajectory.locations
    opened = locations[0]
    sid = opened.sid
    if not network.has_segment(sid):
        raise UnknownSegmentError(sid)
    node_point = network.node_point
    # A table hit is read in place; a miss (or a cached no-path ``None``)
    # goes through ``crossing_row``, which infers, counts and raises.
    table = network.crossing_table()
    entries = table.entries
    fragments: list[TFragment] = []
    append = fragments.append
    # Index of the open fragment's first original sample after ``opened``.
    start = 1
    for i, nxt in enumerate(locations):
        if nxt.sid == sid:
            continue
        row = entries.get((sid, nxt.sid))
        if row is None:
            row = crossing_row(network, sid, nxt.sid)
        else:
            table.lookups += 1
        count = len(row) // 2
        t0 = locations[i - 1].t
        dt = nxt.t - t0
        for j in range(count):
            node_id = row[2 * j]
            point = node_point(node_id)
            x = point.x
            y = point.y
            t = t0 + dt * (j + 1) / (count + 1)
            closing = Location(sid, x, y, t, node_id)
            if keep_interior_points:
                kept = (opened, *locations[start:i], closing)
                start = i
            else:
                kept = (opened, closing)
            append(TFragment(trid, sid, kept))
            sid = row[2 * j + 1]
            opened = Location(sid, x, y, t, node_id)
    if keep_interior_points:
        kept = (opened, *locations[start:])
    else:
        kept = (opened, locations[-1])
    append(TFragment(trid, sid, kept))
    return fragments


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
