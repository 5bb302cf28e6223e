"""The road network graph.

Implements the reference model of Section II-A: a directed graph
``G = (V, E)`` of junction nodes and ``sid``-labelled road segments, with
the adjacency operators the NEAT algorithms rely on:

* ``L(e)`` — the set of segments adjacent to segment ``e``
  (:meth:`RoadNetwork.adjacent_segments`),
* ``L_n(e)`` — the subset of ``L(e)`` meeting ``e`` at junction ``n``
  (:meth:`RoadNetwork.adjacent_segments_at`),
* ``I(e_i, e_j)`` — the junction shared by two adjacent segments
  (:meth:`RoadNetwork.common_junction`).

Segment geometry is the straight chord between the two junctions; segment
``length`` may exceed the chord to model curvature (the simulator and all
distance computations use ``length``, while geometric positions interpolate
the chord).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import (
    DuplicateSegmentError,
    RoadNetworkError,
    UnknownNodeError,
    UnknownSegmentError,
)
from .geometry import Point, bounding_box, interpolate
from .segment import DEFAULT_SPEED_LIMIT, DirectedEdge, Junction, RoadSegment


class RoadNetwork:
    """A mutable road-network graph.

    Build a network by adding junctions then segments (or use
    :class:`~repro.roadnet.builder.RoadNetworkBuilder` /
    :mod:`~repro.roadnet.generators` for convenience), then treat it as
    read-only while running simulations and clustering.

    Example:
        >>> net = RoadNetwork()
        >>> a = net.add_junction(Point(0.0, 0.0))
        >>> b = net.add_junction(Point(100.0, 0.0))
        >>> sid = net.add_segment(a, b)
        >>> net.segment(sid).length
        100.0
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._junctions: dict[int, Junction] = {}
        self._segments: dict[int, RoadSegment] = {}
        # node id -> sorted-on-demand list of incident segment ids
        self._incidence: dict[int, list[int]] = {}
        self._next_node_id = 0
        self._next_sid = 0
        # Mutation counter; CSR snapshots and the crossing table are cached
        # against it so stale derived data is never served after
        # add_junction/add_segment.
        self._version = 0
        self._csr_cache: dict[bool, tuple[int, object]] = {}
        self._crossings: CrossingTable | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_junction(self, point: Point, node_id: int | None = None) -> int:
        """Add a junction at ``point`` and return its node id.

        Passing an explicit ``node_id`` is supported for deserialization;
        it must not collide with an existing junction.
        """
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._junctions:
            raise RoadNetworkError(f"duplicate junction node id: {node_id}")
        self._junctions[node_id] = Junction(node_id, point)
        self._incidence[node_id] = []
        self._next_node_id = max(self._next_node_id, node_id + 1)
        self._version += 1
        return node_id

    def add_segment(
        self,
        node_u: int,
        node_v: int,
        length: float | None = None,
        speed_limit: float = DEFAULT_SPEED_LIMIT,
        bidirectional: bool = True,
        road_class: str = "local",
        sid: int | None = None,
    ) -> int:
        """Add a road segment between two existing junctions.

        When ``length`` is omitted it defaults to the straight-line distance
        between the junctions.  Returns the assigned segment id.
        """
        if node_u not in self._junctions:
            raise UnknownNodeError(node_u)
        if node_v not in self._junctions:
            raise UnknownNodeError(node_v)
        if sid is None:
            sid = self._next_sid
        if sid in self._segments:
            raise DuplicateSegmentError(sid)
        if length is None:
            length = self.node_point(node_u).distance_to(self.node_point(node_v))
            if length <= 0.0:
                raise RoadNetworkError(
                    f"junctions {node_u} and {node_v} are coincident; "
                    "pass an explicit length"
                )
        segment = RoadSegment(
            sid=sid,
            node_u=node_u,
            node_v=node_v,
            length=length,
            speed_limit=speed_limit,
            bidirectional=bidirectional,
            road_class=road_class,
        )
        self._segments[sid] = segment
        self._incidence[node_u].append(sid)
        self._incidence[node_v].append(sid)
        self._next_sid = max(self._next_sid, sid + 1)
        self._version += 1
        return sid

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def junction_count(self) -> int:
        """Number of junction nodes."""
        return len(self._junctions)

    @property
    def segment_count(self) -> int:
        """Number of road segments (each bidirectional road counts once)."""
        return len(self._segments)

    def junction(self, node_id: int) -> Junction:
        """The :class:`Junction` with the given id."""
        try:
            return self._junctions[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def node_point(self, node_id: int) -> Point:
        """Planar position of a junction."""
        return self.junction(node_id).point

    def has_node(self, node_id: int) -> bool:
        """Whether a junction with this id exists."""
        return node_id in self._junctions

    def has_segment(self, sid: int) -> bool:
        """Whether a segment with this id exists."""
        return sid in self._segments

    def segment(self, sid: int) -> RoadSegment:
        """The :class:`RoadSegment` with the given id."""
        try:
            return self._segments[sid]
        except KeyError:
            raise UnknownSegmentError(sid) from None

    def junctions(self) -> Iterator[Junction]:
        """Iterate over all junctions in ascending node-id order."""
        for node_id in sorted(self._junctions):
            yield self._junctions[node_id]

    def segments(self) -> Iterator[RoadSegment]:
        """Iterate over all segments in ascending sid order."""
        for sid in sorted(self._segments):
            yield self._segments[sid]

    def node_ids(self) -> list[int]:
        """Sorted list of junction node ids."""
        return sorted(self._junctions)

    def segment_ids(self) -> list[int]:
        """Sorted list of segment ids."""
        return sorted(self._segments)

    # ------------------------------------------------------------------
    # Adjacency operators from the paper
    # ------------------------------------------------------------------
    def incident_segments(self, node_id: int) -> list[int]:
        """Segment ids incident to a junction (the junction's degree set)."""
        if node_id not in self._incidence:
            raise UnknownNodeError(node_id)
        return list(self._incidence[node_id])

    def degree(self, node_id: int) -> int:
        """Junction degree: number of incident segments."""
        if node_id not in self._incidence:
            raise UnknownNodeError(node_id)
        return len(self._incidence[node_id])

    def adjacent_segments_at(self, sid: int, node_id: int) -> list[int]:
        """``L_n(e)``: segments adjacent to segment ``sid`` at junction ``node_id``.

        Returns an empty list when ``node_id`` is a dead end reached only by
        ``sid`` (paper: ``L_n(e) = φ``).
        """
        segment = self.segment(sid)
        if not segment.has_endpoint(node_id):
            raise RoadNetworkError(
                f"junction {node_id} is not an endpoint of segment {sid}"
            )
        return [other for other in self._incidence[node_id] if other != sid]

    def adjacent_segments(self, sid: int) -> list[int]:
        """``L(e)``: all segments sharing a junction with segment ``sid``."""
        segment = self.segment(sid)
        adjacent = self.adjacent_segments_at(sid, segment.node_u)
        seen = set(adjacent)
        for other in self.adjacent_segments_at(sid, segment.node_v):
            if other not in seen:
                adjacent.append(other)
                seen.add(other)
        return adjacent

    def common_junction(self, sid_a: int, sid_b: int) -> int | None:
        """``I(e_i, e_j)``: the junction shared by two segments, else ``None``.

        When two segments share both endpoints (parallel roads), the lower
        node id is returned for determinism.  Allocation-free: route
        checks call it once per consecutive pair of segments.
        """
        seg_a = self.segment(sid_a)
        seg_b = self.segment(sid_b)
        u, v = seg_a.node_u, seg_a.node_v
        u_shared = u == seg_b.node_u or u == seg_b.node_v
        v_shared = v == seg_b.node_u or v == seg_b.node_v
        if u_shared:
            return v if v_shared and v < u else u
        return v if v_shared else None

    def are_adjacent(self, sid_a: int, sid_b: int) -> bool:
        """Whether two distinct segments share a junction."""
        if sid_a == sid_b:
            return False
        return self.common_junction(sid_a, sid_b) is not None

    def is_route(self, sids: Iterable[int]) -> bool:
        """Whether a sequence of segment ids forms a route (network path).

        A route per the paper is ``e_0 e_1 ... e_k`` with each consecutive
        pair adjacent.  Additionally, consecutive triples must progress
        through distinct junctions (no immediate bounce through the same
        junction twice in a row via the same shared node).
        """
        sid_list = list(sids)
        if not sid_list:
            return False
        if len(sid_list) == 1:
            return self.has_segment(sid_list[0])
        previous_junction: int | None = None
        for first, second in zip(sid_list, sid_list[1:]):
            junction = self.common_junction(first, second)
            if junction is None:
                return False
            if previous_junction is not None and junction == previous_junction:
                # The route entered and left `first` through the same
                # junction, which is not a simple concatenation.
                return False
            previous_junction = junction
        return True

    # ------------------------------------------------------------------
    # Directed view (for routing)
    # ------------------------------------------------------------------
    def out_edges(self, node_id: int) -> list[DirectedEdge]:
        """Directed edges leaving a junction, respecting one-way segments."""
        if node_id not in self._incidence:
            raise UnknownNodeError(node_id)
        edges: list[DirectedEdge] = []
        for sid in self._incidence[node_id]:
            segment = self._segments[sid]
            if segment.node_u == node_id:
                edges.append(
                    DirectedEdge(
                        sid, node_id, segment.node_v, segment.length,
                        segment.speed_limit,
                    )
                )
            elif segment.bidirectional:
                edges.append(
                    DirectedEdge(
                        sid, node_id, segment.node_u, segment.length,
                        segment.speed_limit,
                    )
                )
        return edges

    def undirected_neighbors(self, node_id: int) -> list[tuple[int, int, float]]:
        """``(neighbor_node, sid, length)`` triples ignoring direction.

        Phase 3 of NEAT measures network proximity on the undirected graph
        (paper, Section III-C3), so refinement uses this view.
        """
        if node_id not in self._incidence:
            raise UnknownNodeError(node_id)
        neighbors: list[tuple[int, int, float]] = []
        for sid in self._incidence[node_id]:
            segment = self._segments[sid]
            neighbors.append(
                (segment.other_endpoint(node_id), sid, segment.length)
            )
        return neighbors

    # ------------------------------------------------------------------
    # Flat-array snapshot (the fast shortest-path backend)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; increments on every junction/segment add."""
        return self._version

    def csr(self, directed: bool = False):
        """The cached :class:`~repro.roadnet.csr.CSRGraph` snapshot.

        Built on first use per direction mode and memoized until the
        network is mutated, so repeated shortest-path queries share one
        frozen flat-array view.  The snapshot is read-only and picklable
        (worker processes receive it directly).
        """
        cached = self._csr_cache.get(directed)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from .csr import build_csr

        graph = build_csr(self, directed=directed)
        self._csr_cache[directed] = (self._version, graph)
        return graph

    def crossing_table(self) -> "CrossingTable":
        """The cached :class:`CrossingTable` of this network version.

        Created empty on first use and memoized until the network is
        mutated, like :meth:`csr`.  Phase 1's crossing inference
        (:func:`~repro.mapmatch.path_inference.infer_crossings`) fills it,
        one entry per ordered segment pair it is asked about.
        """
        table = self._crossings
        if table is None or table.version != self._version:
            table = self._crossings = CrossingTable(self._version)
        return table

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def segment_endpoints(self, sid: int) -> tuple[Point, Point]:
        """The ``(u, v)`` junction positions of a segment."""
        segment = self.segment(sid)
        return (self.node_point(segment.node_u), self.node_point(segment.node_v))

    def point_on_segment(self, sid: int, offset: float) -> Point:
        """Position at arc-length ``offset`` from the ``u`` end of a segment.

        Offsets are expressed against the segment's ``length`` attribute and
        interpolated linearly along the chord, clamped to ``[0, length]``.
        """
        segment = self.segment(sid)
        a, b = self.segment_endpoints(sid)
        if segment.length <= 0.0:
            return a
        t = min(1.0, max(0.0, offset / segment.length))
        return interpolate(a, b, t)

    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding box ``(min_x, min_y, max_x, max_y)`` of all junctions."""
        return bounding_box(j.point for j in self._junctions.values())

    def total_length(self) -> float:
        """Sum of all segment lengths in metres."""
        return sum(s.length for s in self._segments.values())

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # CSR snapshots and the crossing table are derived data; drop them
        # so pickling a network (e.g. shipping it to a worker process)
        # stays lean.
        state = self.__dict__.copy()
        state["_csr_cache"] = {}
        state["_crossings"] = None
        return state

    def __contains__(self, sid: int) -> bool:
        return sid in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(name={self.name!r}, junctions={self.junction_count}, "
            f"segments={self.segment_count})"
        )

    # ------------------------------------------------------------------
    # Read-only mapping views (used by serialization and tests)
    # ------------------------------------------------------------------
    @property
    def junction_map(self) -> Mapping[int, Junction]:
        """Read-only view of the junction table."""
        return dict(self._junctions)

    @property
    def segment_map(self) -> Mapping[int, RoadSegment]:
        """Read-only view of the segment table."""
        return dict(self._segments)


class CrossingTable:
    """Memoized junction crossings between ordered segment pairs.

    Which junctions an object crosses between two matched segments is a
    property of the map, not of the trajectory, so Phase 1 infers each
    ordered ``(sid_from, sid_to)`` pair once per network version.  An
    entry is a flat all-int tuple ``(node, sid, node, sid, ...)`` — the
    crossed junction and the segment entered there, in travel order — or
    ``None`` when the segments are not connected.  All-int tuples are not
    tracked by the cyclic GC, and their ints are shared with the CSR
    snapshot and the samples rather than boxed anew.  The table holds at
    most one entry per distinct ordered pair the network has been asked
    about.

    Attributes:
        version: The network version the entries were computed against.
        entries: ``(sid_from, sid_to)`` -> flat crossing tuple or ``None``.
        searches: Shortest-route searches run to fill missing entries.
        lookups: Crossing requests answered (hits and misses).
    """

    __slots__ = ("version", "entries", "searches", "lookups")

    def __init__(self, version: int) -> None:
        self.version = version
        self.entries: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self.searches = 0
        self.lookups = 0

    def __len__(self) -> int:
        return len(self.entries)
