"""Dict-of-lists shortest-path walkers: the reference for the CSR kernels.

These are the textbook searches the library ran before every search moved
onto the flat-array :class:`~repro.roadnet.csr.CSRGraph`.  They walk the
mutable :class:`~repro.roadnet.RoadNetwork` directly through
``out_edges`` / ``undirected_neighbors``, so they share no code with the
kernels they check:

* :func:`dijkstra_single_source` for ``CSRGraph.single_source``;
* :func:`dijkstra_distance_counted` for the bidirectional point search;
* :func:`dijkstra_multi_target` for ``CSRGraph.multi_target_distances``;
* :func:`shortest_route` (Euclidean A*) for ``CSRGraph.shortest_route``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.errors import NoPathError, UnknownNodeError
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import INFINITY, Route


def _neighbor_fn(
    network: RoadNetwork, directed: bool
) -> Callable[[int], Iterable[tuple[int, int, float]]]:
    """Adapter returning ``(neighbor, sid, length)`` triples for a node."""
    if directed:
        def neighbors(node_id: int) -> Iterable[tuple[int, int, float]]:
            return [
                (edge.head, edge.sid, edge.length)
                for edge in network.out_edges(node_id)
            ]
        return neighbors
    return network.undirected_neighbors


def dijkstra_single_source(
    network: RoadNetwork,
    source: int,
    directed: bool = False,
    max_distance: float = INFINITY,
) -> dict[int, float]:
    """Distances from ``source`` to every node within ``max_distance``.

    Args:
        network: The road network.
        source: Start junction id.
        directed: Respect one-way segments when ``True``.
        max_distance: Stop expanding once the frontier exceeds this bound.

    Returns:
        Mapping of reachable node id to shortest-path distance in metres.
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    neighbors = _neighbor_fn(network, directed)
    # ``settled`` doubles as the result: only settled nodes are reported,
    # and a push is attempted only when it improves the tentative label
    # *and* stays within the bound, so the heap never carries entries
    # already known unreachable-within-bound.
    settled: dict[int, float] = {}
    seen: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        if d > max_distance:
            break
        settled[node] = d
        for neighbor, _sid, length in neighbors(node):
            nd = d + length
            if nd <= max_distance and nd < seen.get(neighbor, INFINITY):
                seen[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return settled


def dijkstra_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    directed: bool = False,
    cutoff: float = INFINITY,
) -> float:
    """Shortest-path distance between two junctions.

    Returns :data:`INFINITY` when no path exists (or none within
    ``cutoff``).
    """
    return dijkstra_distance_counted(network, source, target, directed, cutoff)[0]


def dijkstra_distance_counted(
    network: RoadNetwork,
    source: int,
    target: int,
    directed: bool = False,
    cutoff: float = INFINITY,
) -> tuple[float, int]:
    """Like :func:`dijkstra_distance`, also reporting settled-node count.

    Args:
        cutoff: Give up once the frontier exceeds this bound and report
            the pair unreachable-within-bound.  Phase 3 region queries
            pass ``eps`` here so an ELB-surviving pair never settles the
            whole graph just to learn the distance exceeds the threshold.

    Returns:
        ``(distance, expansions)`` where ``expansions`` is the number of
        nodes the search settled — the per-search work unit the telemetry
        layer aggregates as ``roadnet.sp.nodes_expanded``.
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    if not network.has_node(target):
        raise UnknownNodeError(target)
    if source == target:
        return 0.0, 0
    neighbors = _neighbor_fn(network, directed)
    dist: dict[int, float] = {source: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    expansions = 0
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == target:
            return d, expansions
        if d > cutoff:
            break
        done.add(node)
        expansions += 1
        for neighbor, _sid, length in neighbors(node):
            nd = d + length
            if nd <= cutoff and nd < dist.get(neighbor, INFINITY):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return INFINITY, expansions


def dijkstra_multi_target(
    network: RoadNetwork,
    source: int,
    targets: Iterable[int],
    directed: bool = False,
    cutoff: float = INFINITY,
) -> tuple[dict[int, float], int]:
    """One bounded single-source search answering a whole target set.

    Reference for
    :meth:`~repro.roadnet.csr.CSRGraph.multi_target_distances`: settles
    outward from ``source`` until every requested target is settled or
    the frontier exceeds ``cutoff``.  Distances are plain Dijkstra sums,
    bit-identical to :func:`dijkstra_distance_counted` per pair.

    Returns:
        ``(found, settled_nodes)``; targets absent from ``found`` are
        proven farther than ``cutoff`` (or unreachable).
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    found: dict[int, float] = {}
    remaining: set[int] = set()
    for target in targets:
        if not network.has_node(target):
            raise UnknownNodeError(target)
        if target == source:
            found[target] = 0.0
        else:
            remaining.add(target)
    if not remaining:
        return found, 0
    neighbors = _neighbor_fn(network, directed)
    dist: dict[int, float] = {source: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    expansions = 0
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        expansions += 1
        if node in remaining:
            remaining.discard(node)
            found[node] = d
            if not remaining:
                break
        for neighbor, _sid, length in neighbors(node):
            nd = d + length
            if nd <= cutoff and nd < dist.get(neighbor, INFINITY):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return found, expansions


def shortest_route(
    network: RoadNetwork,
    source: int,
    target: int,
    directed: bool = True,
) -> Route:
    """The shortest route between two junctions, with path recovery.

    Uses A* with the Euclidean distance to the target as heuristic.  Since
    every segment's length is at least the straight chord between its
    junctions, the heuristic is admissible and the result optimal.  The
    parent moves only on strict improvement, so among equally short
    routes the first one found wins.

    Raises:
        NoPathError: when ``target`` is unreachable from ``source``.
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    if not network.has_node(target):
        raise UnknownNodeError(target)
    if source == target:
        return Route((source,), (), 0.0)
    neighbors = _neighbor_fn(network, directed)
    target_point = network.node_point(target)

    def heuristic(node_id: int) -> float:
        return network.node_point(node_id).distance_to(target_point)

    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, tuple[int, int]] = {}  # node -> (previous node, sid)
    done: set[int] = set()
    heap: list[tuple[float, float, int]] = [(heuristic(source), 0.0, source)]
    while heap:
        _f, d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == target:
            return _recover_route(parent, source, target, d)
        done.add(node)
        for neighbor, sid, length in neighbors(node):
            nd = d + length
            if nd < dist.get(neighbor, INFINITY):
                dist[neighbor] = nd
                parent[neighbor] = (node, sid)
                heapq.heappush(heap, (nd + heuristic(neighbor), nd, neighbor))
    raise NoPathError(source, target)


def _recover_route(
    parent: dict[int, tuple[int, int]], source: int, target: int, length: float
) -> Route:
    """Rebuild a :class:`Route` from the A*/Dijkstra parent table."""
    nodes = [target]
    sids: list[int] = []
    node = target
    while node != source:
        node, sid = parent[node]
        nodes.append(node)
        sids.append(sid)
    nodes.reverse()
    sids.reverse()
    return Route(tuple(nodes), tuple(sids), length)
