"""Inferring the junctions crossed between two matched segments.

When two consecutive trajectory samples lie on different road segments, the
object crossed one or more junctions between them (Section III-A1).  For
contiguous segments the crossing is simply their shared junction
``I(e_i, e_j)``; otherwise the crossing sequence is recovered from the
shortest path between the segments' endpoints — the "map-matching approach"
the paper defers to.

The result is a list of :class:`Crossing` records, each saying "the object
crossed junction ``node_id`` and entered segment ``sid``"; the final
crossing always enters the destination segment.  The crossings between two
segments depend only on the map, so each ordered pair is inferred once per
network version and kept in its :class:`~repro.roadnet.network.CrossingTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NoPathError
from ..roadnet.network import CrossingTable, RoadNetwork
from ..roadnet.shortest_path import shortest_route


@dataclass(frozen=True, slots=True)
class Crossing:
    """One junction crossing: the object enters ``sid`` at ``node_id``."""

    node_id: int
    sid: int


def infer_crossings(
    network: RoadNetwork, sid_from: int, sid_to: int
) -> list[Crossing]:
    """The junction crossings between segment ``sid_from`` and ``sid_to``.

    For adjacent segments this is the single shared junction.  For
    non-adjacent segments, the cheapest endpoint-to-endpoint shortest route
    supplies the intermediate segments; each intermediate junction becomes
    a crossing.  Memoized per network (:func:`crossing_row`).

    Raises:
        NoPathError: when the two segments are not connected at all.
    """
    if sid_from == sid_to:
        return []
    row = crossing_row(network, sid_from, sid_to)
    return [Crossing(row[i], row[i + 1]) for i in range(0, len(row), 2)]


def crossing_row(
    network: RoadNetwork, sid_from: int, sid_to: int
) -> tuple[int, ...]:
    """The crossings from ``sid_from`` to a different ``sid_to``, flat.

    ``(node, sid, node, sid, ...)``: each crossed junction followed by the
    segment entered there.  Answered from the network's
    :class:`~repro.roadnet.network.CrossingTable`; a pair seen for the
    first time is inferred once and stored, so Phase 1 pays for each
    ordered segment pair once per network rather than once per sample.

    Raises:
        NoPathError: when the two segments are not connected at all.
    """
    table = network.crossing_table()
    table.lookups += 1
    key = (sid_from, sid_to)
    entries = table.entries
    if key in entries:
        row = entries[key]
    else:
        row = entries[key] = _infer_row(network, table, sid_from, sid_to)
    if row is None:
        raise NoPathError(sid_from, sid_to)
    return row


def _infer_row(
    network: RoadNetwork, table: CrossingTable, sid_from: int, sid_to: int
) -> tuple[int, ...] | None:
    """One table entry: the first strictly shortest route in endpoint order."""
    junction = network.common_junction(sid_from, sid_to)
    if junction is not None:
        return (junction, sid_to)

    seg_from = network.segment(sid_from)
    seg_to = network.segment(sid_to)
    best = None
    for exit_node in seg_from.endpoints:
        for entry_node in seg_to.endpoints:
            table.searches += 1
            try:
                route = shortest_route(network, exit_node, entry_node, directed=False)
            except NoPathError:
                continue
            if best is None or route.length < best.length:
                best = route
    if best is None:
        return None

    row: list[int] = []
    for node_id, sid in zip(best.nodes, best.sids):
        row.append(node_id)
        row.append(sid)
    row.append(best.nodes[-1])
    row.append(sid_to)
    return tuple(row)
