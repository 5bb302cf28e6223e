"""Extracting sub-networks (bounding-box crops) from a road network.

Working with a metro-scale map but clustering one district is a common
deployment pattern (the paper's MIA map is 15x its ATL map): crop the
network to the district, then run NEAT there.  The crop preserves node
ids and segment ids so trajectories matched against the full map remain
valid on the crop wherever they stay inside it.
"""

from __future__ import annotations

from ..core.model import Trajectory
from .network import RoadNetwork


def crop_network(
    network: RoadNetwork,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    name: str | None = None,
) -> RoadNetwork:
    """The sub-network induced by junctions inside a bounding box.

    A segment survives when *both* of its junctions are inside the box.
    Node and segment ids are preserved.  The result may be disconnected;
    callers who need connectivity can check with
    ``cropped.csr().single_source(node)``.
    """
    if max_x <= min_x or max_y <= min_y:
        raise ValueError("empty bounding box")
    cropped = RoadNetwork(
        name=name if name is not None else f"{network.name}-crop"
    )
    kept_nodes = set()
    for junction in network.junctions():
        p = junction.point
        if min_x <= p.x <= max_x and min_y <= p.y <= max_y:
            cropped.add_junction(p, node_id=junction.node_id)
            kept_nodes.add(junction.node_id)
    for segment in network.segments():
        if segment.node_u in kept_nodes and segment.node_v in kept_nodes:
            cropped.add_segment(
                segment.node_u,
                segment.node_v,
                length=segment.length,
                speed_limit=segment.speed_limit,
                bidirectional=segment.bidirectional,
                road_class=segment.road_class,
                sid=segment.sid,
            )
    return cropped


def clip_trajectories(
    cropped: RoadNetwork, trajectories, min_points: int = 2
) -> list[Trajectory]:
    """Restrict trajectories to their maximal runs inside a cropped network.

    Each trajectory is cut wherever it leaves the crop (a sample on a
    segment the crop lacks); every surviving run with at least
    ``min_points`` samples becomes its own trajectory.  Run ids are
    ``original_trid * 1000 + run_index`` so provenance stays recoverable.
    """
    clipped: list[Trajectory] = []
    for trajectory in trajectories:
        runs: list[list] = [[]]
        for location in trajectory.locations:
            if cropped.has_segment(location.sid):
                runs[-1].append(location)
            elif runs[-1]:
                runs.append([])
        for index, run in enumerate(r for r in runs if len(r) >= min_points):
            clipped.append(
                Trajectory(trajectory.trid * 1000 + index, tuple(run))
            )
    return clipped
