"""ALT (A*, Landmarks, Triangle inequality) distance acceleration.

Phase 3 of NEAT repeatedly computes node-pair network distances.  The
paper prunes *whole computations* with the Euclidean lower bound; this
module additionally accelerates the computations that remain: distances
to a few precomputed *landmark* nodes give, via the triangle inequality,
a lower bound ``|d(L, t) - d(L, s)| <= d(s, t)`` that is usually much
tighter than the Euclidean bound on road networks, and drives a goal-
directed A* (Goldberg & Harrelson, SODA'05).

Landmarks are chosen by farthest-point sampling, the standard heuristic.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from ..errors import UnknownNodeError
from .network import RoadNetwork
from .shortest_path import INFINITY


class LandmarkOracle:
    """Precomputed landmark distances and the ALT lower bound / search.

    Args:
        network: The road network (undirected view; Phase 3's setting).
        landmark_count: Number of landmarks to select.
        seed_node: Starting node for farthest-point sampling; defaults to
            the lowest node id for determinism.
    """

    def __init__(
        self,
        network: RoadNetwork,
        landmark_count: int = 8,
        seed_node: int | None = None,
    ) -> None:
        if landmark_count < 1:
            raise ValueError("landmark_count must be >= 1")
        self._network = network
        #: Mutation version of the network the tables were swept on;
        #: consumers memoizing an oracle (the engine's LLB tier) compare
        #: it against ``network.version`` to detect staleness.
        self.network_version = network.version
        node_ids = network.node_ids()
        if not node_ids:
            raise ValueError("cannot build landmarks on an empty network")
        start = seed_node if seed_node is not None else node_ids[0]
        if not network.has_node(start):
            raise UnknownNodeError(start)
        self.landmarks: list[int] = []
        self._tables: list[dict[int, float]] = []
        self._select_landmarks(start, min(landmark_count, len(node_ids)))

    def _select_landmarks(self, start: int, count: int) -> None:
        """Farthest-point sampling: each landmark maximizes the minimum
        distance to the ones already chosen."""
        current = start
        best_min: dict[int, float] = {}
        # Landmark tables are whole-graph single-source sweeps — the CSR
        # flat-array walker settles them several times faster than the
        # dict adjacency, with identical distances.
        graph = self._network.csr(directed=False)
        for _ in range(count):
            table = graph.single_source(current)
            self.landmarks.append(current)
            self._tables.append(table)
            for node, distance in table.items():
                previous = best_min.get(node, INFINITY)
                if distance < previous:
                    best_min[node] = distance
            # Next landmark: reachable node farthest from all landmarks.
            current = max(
                best_min, key=lambda n: (best_min[n], -n), default=current
            )
            if current in self.landmarks:
                break

    # ------------------------------------------------------------------
    def lower_bound(self, source: int, target: int) -> float:
        """ALT lower bound on ``d(source, target)``.

        The maximum over landmarks of ``|d(L, target) - d(L, source)|``;
        0.0 when neither side is covered (disconnected components).
        """
        best = 0.0
        for table in self._tables:
            ds = table.get(source)
            dt = table.get(target)
            if ds is None or dt is None:
                continue
            bound = abs(dt - ds)
            if bound > best:
                best = bound
        return best

    def landmark_table_rows(self, nodes: Sequence[int]) -> list[list[float]]:
        """Per node, its distance to every landmark (``nan`` = uncovered).

        The batch view of the tables behind :meth:`lower_bound`, used by
        the vectorized bound kernels: row ``i`` lists ``d(L, nodes[i])``
        for each landmark ``L`` in :attr:`landmarks` order, with
        ``math.nan`` marking nodes a landmark's sweep never reached.
        """
        import math

        return [
            [table.get(node, math.nan) for table in self._tables]
            for node in nodes
        ]

    def is_current(self) -> bool:
        """Whether the tables still describe the network (no mutations)."""
        return self.network_version == self._network.version

    def distance(self, source: int, target: int) -> float:
        """Exact distance via ALT-guided A* (undirected).

        Optimal because the ALT bound is a consistent heuristic.
        """
        if source == target:
            return 0.0
        network = self._network
        if not network.has_node(source):
            raise UnknownNodeError(source)
        if not network.has_node(target):
            raise UnknownNodeError(target)
        dist: dict[int, float] = {source: 0.0}
        done: set[int] = set()
        heap: list[tuple[float, float, int]] = [
            (self.lower_bound(source, target), 0.0, source)
        ]
        while heap:
            _f, d, node = heapq.heappop(heap)
            if node in done:
                continue
            if node == target:
                return d
            done.add(node)
            for neighbor, _sid, length in network.undirected_neighbors(node):
                nd = d + length
                if nd < dist.get(neighbor, INFINITY):
                    dist[neighbor] = nd
                    heapq.heappush(
                        heap, (nd + self.lower_bound(neighbor, target), nd, neighbor)
                    )
        return INFINITY

    def settled_estimate(self, source: int, target: int) -> int:
        """Nodes settled by the ALT search (for the acceleration bench)."""
        if source == target:
            return 0
        network = self._network
        dist: dict[int, float] = {source: 0.0}
        done: set[int] = set()
        heap: list[tuple[float, float, int]] = [
            (self.lower_bound(source, target), 0.0, source)
        ]
        while heap:
            _f, d, node = heapq.heappop(heap)
            if node in done:
                continue
            if node == target:
                return len(done)
            done.add(node)
            for neighbor, _sid, length in network.undirected_neighbors(node):
                nd = d + length
                if nd < dist.get(neighbor, INFINITY):
                    dist[neighbor] = nd
                    heapq.heappush(
                        heap, (nd + self.lower_bound(neighbor, target), nd, neighbor)
                    )
        return len(done)

