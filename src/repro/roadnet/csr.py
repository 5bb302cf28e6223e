"""Flat-array (CSR) shortest-path core: the one search implementation.

A :class:`CSRGraph` freezes a :class:`~repro.roadnet.RoadNetwork` into a
compressed sparse row snapshot whose adjacency is four flat parallel
columns indexed by a dense ``0..n-1`` node index, plus float64 node
coordinate columns.  Every shortest-path search in the library runs over
it, one kernel per job:

* :meth:`CSRGraph.bidirectional_distance_counted` — (bounded) point
  distances, growing a forward and a backward frontier; settles roughly
  ``2*sqrt`` of the nodes a unidirectional search would;
* :meth:`CSRGraph.multi_target_distances` — one bounded search answering
  a whole target set (Phase 3's grouped searches);
* :meth:`CSRGraph.shortest_route` — A* with path recovery under the
  Euclidean heuristic (Phase 1 junction crossings and the simulator);
* :meth:`CSRGraph.single_source` — (bounded) single-source distance
  tables (the landmark tables).

The dict-of-lists walkers these kernels replaced live on in the test
suite as the reference they are checked against.

Storage is typed :class:`array.array` buffers (``'q'`` int64 for the
structure arrays, ``'d'`` float64 for weights and coordinates), so every
column exposes the buffer protocol: a snapshot can be copied
byte-for-byte into a :mod:`multiprocessing.shared_memory` segment and
*attached* zero-copy in worker processes as ``memoryview`` casts over the
shared buffer (see :mod:`repro.roadnet.sharedcsr`).  Indexing semantics
are identical across backings — the search loops below never know
whether they read a private array or a shared mapping.

Snapshots are immutable and picklable (attached views materialize into
private arrays on pickle).  ``RoadNetwork.csr`` builds and caches one per
direction mode, invalidating on mutation.  Each node's edges are stored
in the network's incidence order, so a search relaxes parallel segments
in the order they were added, whatever their sids.

Exactness: the unidirectional searches add the same floats in the same
order along a path as a textbook dict-of-lists Dijkstra, so their
distances are bit-identical to it.  The bidirectional search sums the
two half-paths separately, so its result can differ in the last ulp;
callers comparing kernels should allow a relative tolerance of ~1e-12
(decision thresholds like Phase 3's ``eps`` are unaffected).
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from math import hypot
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import NoPathError, UnknownNodeError
from .shortest_path import INFINITY, Route

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import RoadNetwork


class CSRGraph:
    """A frozen compressed-sparse-row view of a road network.

    Attributes:
        directed: Whether one-way segments are respected.  The undirected
            view stores every segment in both directions; the directed
            view additionally carries a reverse adjacency (incoming
            edges) so bidirectional search can grow a backward frontier.
        node_ids: Original junction ids, ascending; position = CSR index.
        xs/ys: Junction coordinates in metres, by CSR index (the A*
            heuristic of :meth:`shortest_route`).
        indptr: ``indptr[i]:indptr[i+1]`` slices the edge lists of node
            ``i`` (forward / outgoing view).
        adj: Neighbor CSR indices, one entry per directed edge.
        sids: Segment id of each edge entry.
        weights: Length in metres of each edge entry.
        rindptr/radj/rsids/rweights: The reverse (incoming) adjacency;
            aliases of the forward lists when the graph is undirected.
    """

    __slots__ = (
        "directed",
        "node_ids",
        "xs",
        "ys",
        "index_of",
        "indptr",
        "adj",
        "sids",
        "weights",
        "rindptr",
        "radj",
        "rsids",
        "rweights",
        "_boxed",
    )

    def __init__(
        self,
        directed: bool,
        node_ids,
        xs,
        ys,
        indptr,
        adj,
        sids,
        weights,
        rindptr=None,
        radj=None,
        rsids=None,
        rweights=None,
    ) -> None:
        """Wrap packed CSR columns without copying them.

        The columns may be :class:`array.array` buffers or typed
        ``memoryview`` casts over a shared-memory segment (the zero-copy
        attach path of :class:`~repro.roadnet.sharedcsr.SharedCSR`); the
        search kernels only ever index them.  For a directed graph the
        reverse columns are required; undirected graphs alias the forward
        ones.  Use :func:`build_csr` to derive a graph from a
        :class:`RoadNetwork`.
        """
        if not directed:
            rindptr, radj, rsids, rweights = indptr, adj, sids, weights
        elif any(column is None for column in (rindptr, radj, rsids, rweights)):
            raise ValueError("directed CSR needs its reverse columns")
        self.directed = directed
        self.node_ids, self.xs, self.ys = node_ids, xs, ys
        self.index_of = {nid: i for i, nid in enumerate(node_ids)}
        self.indptr, self.adj, self.sids, self.weights = indptr, adj, sids, weights
        self.rindptr, self.radj, self.rsids, self.rweights = rindptr, radj, rsids, rweights
        self._boxed = None

    def columns(self) -> tuple[tuple[str, Sequence], ...]:
        """``(typecode, column)`` pairs in constructor order.

        The reverse columns are listed only when the graph is directed.
        """
        forward = (
            ("q", self.node_ids), ("d", self.xs), ("d", self.ys),
            ("q", self.indptr), ("q", self.adj), ("q", self.sids), ("d", self.weights),
        )
        if not self.directed:
            return forward
        return forward + (
            ("q", self.rindptr), ("q", self.radj), ("q", self.rsids), ("d", self.rweights),
        )

    def __reduce__(self):
        # Pickle private typed copies of the columns, so a snapshot ships
        # to a process even when its storage is a memoryview over someone
        # else's shared segment; ``index_of`` is rebuilt on arrival.
        return CSRGraph, (
            self.directed, *(array(code, column) for code, column in self.columns())
        )

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of junctions in the snapshot."""
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Number of directed edge entries (2x segments when undirected)."""
        return len(self.adj)

    def _index(self, node_id: int) -> int:
        try:
            return self.index_of[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(directed={self.directed}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------
    def single_source(
        self, source: int, max_distance: float = INFINITY
    ) -> dict[int, float]:
        """Distances from ``source`` to every node within ``max_distance``.

        Keys are original junction ids; the search follows this
        snapshot's direction mode.
        """
        s = self._index(source)
        n = len(self.node_ids)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        dist = [INFINITY] * n
        settled = bytearray(n)
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        out: dict[int, float] = {}
        node_ids = self.node_ids
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            out[node_ids[u]] = d
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= max_distance:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return out

    def bidirectional_distance_counted(
        self, source: int, target: int, cutoff: float = INFINITY
    ) -> tuple[float, int]:
        """Point-to-point distance via bidirectional Dijkstra.

        Grows a forward frontier from ``source`` (outgoing edges) and a
        backward frontier from ``target`` (incoming edges), stopping as
        soon as the two least frontier keys prove no shorter connection
        can exist — or exceed ``cutoff``, in which case the pair is
        reported unreachable-within-bound (:data:`INFINITY`).

        Returns ``(distance, settled_nodes)``.
        """
        s = self._index(source)
        t = self._index(target)
        if s == t:
            return 0.0, 0
        n = len(self.node_ids)
        dist_f = [INFINITY] * n
        dist_b = [INFINITY] * n
        done_f = bytearray(n)
        done_b = bytearray(n)
        dist_f[s] = 0.0
        dist_b[t] = 0.0
        heap_f: list[tuple[float, int]] = [(0.0, s)]
        heap_b: list[tuple[float, int]] = [(0.0, t)]
        best = INFINITY
        expansions = 0
        while heap_f and heap_b:
            if heap_f[0][0] + heap_b[0][0] >= best:
                break
            if heap_f[0][0] + heap_b[0][0] > cutoff:
                break
            if heap_f[0][0] <= heap_b[0][0]:
                heap, dist, done, other = heap_f, dist_f, done_f, dist_b
                indptr, adj, weights = self.indptr, self.adj, self.weights
            else:
                heap, dist, done, other = heap_b, dist_b, done_b, dist_f
                indptr, adj, weights = self.rindptr, self.radj, self.rweights
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            expansions += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= cutoff and nd < best:
                    dist[v] = nd
                    heappush(heap, (nd, v))
                od = other[v]
                if od < INFINITY:
                    total = dist[v] + od
                    if total < best:
                        best = total
        if best <= cutoff:
            return best, expansions
        return INFINITY, expansions

    def multi_target_distances(
        self,
        source: int,
        targets: Iterable[int],
        cutoff: float = INFINITY,
    ) -> tuple[dict[int, float], int]:
        """One bounded single-source search answering a whole target set.

        The batched kernel behind the tiered distance oracle: where the
        per-pair path runs one point-to-point search per ``(source, t)``
        pair, this settles outward from ``source`` once and stops as soon
        as every requested target is settled (or the frontier exceeds
        ``cutoff``).  Distances are unidirectional-Dijkstra sums, so they
        are bit-identical to a plain point-to-point Dijkstra for the same
        pair.

        Returns:
            ``(found, settled_nodes)`` where ``found`` maps each target
            junction id settled within ``cutoff`` to its distance.  A
            target absent from ``found`` is proven farther than
            ``cutoff`` from ``source`` (or unreachable).
        """
        s = self._index(source)
        found: dict[int, float] = {}
        remaining: set[int] = set()
        for target in targets:
            t = self._index(target)
            if t == s:
                found[target] = 0.0
            else:
                remaining.add(t)
        if not remaining:
            return found, 0
        n = len(self.node_ids)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        node_ids = self.node_ids
        dist = [INFINITY] * n
        settled = bytearray(n)
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        expansions = 0
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            expansions += 1
            if u in remaining:
                remaining.discard(u)
                found[node_ids[u]] = d
                if not remaining:
                    break
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= cutoff:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return found, expansions

    def shortest_route(self, source: int, target: int) -> Route:
        """A* with path recovery, under the Euclidean heuristic.

        Every segment is at least as long as the straight chord between
        its junctions, so the straight-line distance to ``target`` is an
        admissible, consistent heuristic and the route is optimal.  Labels
        are sparse dicts (a search touches a small corner of the map), the
        heap orders ``(f, d, node)`` and a node's parent moves only on a
        strict improvement: among equally short routes the first one
        found wins.

        Returns a :class:`~repro.roadnet.shortest_path.Route` in original
        junction/segment ids.

        Raises:
            UnknownNodeError: when either junction is not in the graph.
            NoPathError: when ``target`` is unreachable from ``source``.
        """
        s = self._index(source)
        t = self._index(target)
        if s == t:
            return Route((source,), (), 0.0)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        xs, ys = self.xs, self.ys
        tx, ty = xs[t], ys[t]
        dist = {s: 0.0}
        parent: dict[int, tuple[int, int]] = {}  # node -> (previous, edge)
        done: set[int] = set()
        heap = [(hypot(xs[s] - tx, ys[s] - ty), 0.0, s)]
        while heap:
            _f, d, u = heappop(heap)
            if u in done:
                continue
            if u == t:
                return self._recover(s, t, d, parent)
            done.add(u)
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist.get(v, INFINITY):
                    dist[v] = nd
                    parent[v] = (u, k)
                    heappush(heap, (nd + hypot(xs[v] - tx, ys[v] - ty), nd, v))
        raise NoPathError(source, target)

    def _recover(
        self, s: int, t: int, length: float, parent: dict[int, tuple[int, int]]
    ) -> Route:
        # Ids come from per-graph lists of boxed ints: the locations routes
        # seed then share one int object per junction and segment, where
        # reading the typed columns would box a fresh int per location.
        if self._boxed is None:
            self._boxed = (list(self.index_of), list(self.sids))
        node_ids, edge_sids = self._boxed
        nodes = [node_ids[t]]
        sids: list[int] = []
        u = t
        while u != s:
            u, k = parent[u]
            sids.append(edge_sids[k])
            nodes.append(node_ids[u])
        nodes.reverse()
        sids.reverse()
        return Route(tuple(nodes), tuple(sids), length)


def _pack(
    node_count: int, edges: Iterable[tuple[int, int, int, float]]
) -> tuple[array, array, array, array]:
    """Counting-sort an edge list into typed CSR arrays (stable per source).

    Returns int64 (``'q'``) structure columns and a float64 (``'d'``)
    weight column — contiguous buffers a shared-memory publisher can copy
    byte-for-byte.
    """
    edge_list = list(edges)
    counts = [0] * (node_count + 1)
    for src, _dst, _sid, _w in edge_list:
        counts[src + 1] += 1
    indptr = array("q", bytes(8 * (node_count + 1)))
    total = 0
    for i in range(node_count + 1):
        total += counts[i]
        indptr[i] = total
    cursor = list(indptr[:node_count])
    m = len(edge_list)
    adj = array("q", bytes(8 * m))
    sids = array("q", bytes(8 * m))
    weights = array("d", bytes(8 * m))
    for src, dst, sid, w in edge_list:
        k = cursor[src]
        cursor[src] = k + 1
        adj[k] = dst
        sids[k] = sid
        weights[k] = w
    return indptr, adj, sids, weights


def build_csr(network: "RoadNetwork", directed: bool = False) -> CSRGraph:
    """Snapshot a :class:`RoadNetwork` into a :class:`CSRGraph`.

    Each node's edges follow the network's incidence order, the order
    :meth:`~repro.roadnet.RoadNetwork.out_edges` and
    :meth:`~repro.roadnet.RoadNetwork.undirected_neighbors` report them.
    Prefer :meth:`RoadNetwork.csr`, which memoizes the snapshot and
    invalidates it when the network is mutated.
    """
    node_ids = network.node_ids()
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    points = [network.node_point(nid) for nid in node_ids]
    segments = network.segment_map
    edges: list[tuple[int, int, int, float]] = []
    for u, nid in enumerate(node_ids):
        for sid in network.incident_segments(nid):
            segment = segments[sid]
            if segment.node_u == nid:
                edges.append((u, index_of[segment.node_v], sid, segment.length))
            elif not directed or segment.bidirectional:
                edges.append((u, index_of[segment.node_u], sid, segment.length))
    forward = _pack(len(node_ids), edges)
    reverse = ()
    if directed:
        # Incoming edges by sid, for the backward frontier.
        reverse = _pack(len(node_ids), sorted(
            ((dst, src, sid, w) for src, dst, sid, w in edges),
            key=lambda edge: edge[2],
        ))
    return CSRGraph(
        directed,
        array("q", node_ids),
        array("d", [p.x for p in points]),
        array("d", [p.y for p in points]),
        *forward,
        *reverse,
    )
