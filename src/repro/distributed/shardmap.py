"""Region sharding over a consistent-hash ring.

The distributed tier partitions work *by map region*, not by arrival
order: the road network's bounding box is cut into grid cells and every
cell is assigned to a shard node through a consistent-hash ring.  A
trajectory is routed to the node that owns the cell its first sample
falls in, so spatially close trajectories land on the same node (the
locality the paper's data-node sketch assumes).

The ring is the classic construction — each node contributes
``virtual_nodes`` points hashed onto a 64-bit circle, a key is owned by
the first point clockwise from its own hash — with two properties the
robustness tier leans on:

* **determinism**: points are SHA-256 hashes of ``"node:{id}:{replica}"``
  tokens, so the same membership always produces the same ring, on every
  host, in every run (the chaos suite asserts byte-identical placements);
* **stable rebalance**: removing a node moves *only* the keys that node
  owned (to the next surviving point clockwise); every other key stays
  put.  :meth:`HashRing.remove_node` is therefore the whole "rebalance
  on node death" story, and the coordinator counts each one in
  ``ring.rebalances``.

Because NEAT's Phase 1 is a distributive aggregation (partials merge
exactly by sid — see :func:`~repro.distributed.nodes.merge_base_clusters`),
*any* trajectory partition yields byte-identical final clusters; region
sharding changes data movement, never results.  Segments whose fragments
arrive from more than one shard are the *boundary segments* of the
partition, surfaced by :func:`boundary_sids` and the
``ring.boundary_segments`` counter.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from ..core.base_cluster import BaseCluster
from ..core.model import Trajectory
from ..errors import ConfigError
from ..roadnet.network import RoadNetwork

__all__ = [
    "HashRing",
    "RegionShardMap",
    "boundary_sids",
]


def _hash64(token: str) -> int:
    """A stable 64-bit point on the ring (first 8 bytes of SHA-256)."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A deterministic consistent-hash ring with virtual nodes.

    Args:
        node_ids: Initial members.
        virtual_nodes: Points each member contributes to the circle;
            more points smooth the key distribution at the cost of a
            larger (still tiny) sorted table.
    """

    def __init__(
        self, node_ids: Iterable[int] = (), virtual_nodes: int = 64
    ) -> None:
        if virtual_nodes < 1:
            raise ConfigError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = virtual_nodes
        self._members: set[int] = set()
        # Sorted (point, node_id) pairs; rebuilt on membership change
        # (memberships are tiny and changes are rare — node death).
        self._points: list[tuple[int, int]] = []
        for node_id in node_ids:
            self.add_node(node_id)

    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> tuple[int, ...]:
        """Current members, ascending."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def add_node(self, node_id: int) -> bool:
        """Add a member (idempotent); True when membership changed."""
        if node_id in self._members:
            return False
        self._members.add(node_id)
        for replica in range(self.virtual_nodes):
            self._points.append(
                (_hash64(f"node:{node_id}:{replica}"), node_id)
            )
        self._points.sort()
        return True

    def remove_node(self, node_id: int) -> bool:
        """Remove a member (idempotent); True when membership changed.

        Only keys the removed node owned move — each to the next
        surviving point clockwise from its hash.  Everything else keeps
        its owner, which is what makes a mid-run rebalance deterministic.
        """
        if node_id not in self._members:
            return False
        self._members.discard(node_id)
        self._points = [p for p in self._points if p[1] != node_id]
        return True

    def node_for(self, key: str) -> int:
        """The member owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise ConfigError("hash ring has no members")
        index = bisect_right(self._points, (_hash64(key), -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key: str) -> list[int]:
        """All members in ring order starting at ``key``'s owner.

        The re-dispatch order for a shard keyed by ``key``: the owner
        first, then the nodes that would inherit the key were earlier
        entries removed — so a failover target is the same node a real
        rebalance would have picked.
        """
        if not self._points:
            return []
        start = bisect_right(self._points, (_hash64(key), -1))
        ordered: list[int] = []
        seen: set[int] = set()
        for offset in range(len(self._points)):
            node_id = self._points[(start + offset) % len(self._points)][1]
            if node_id not in seen:
                seen.add(node_id)
                ordered.append(node_id)
        return ordered


class RegionShardMap:
    """Maps trajectories to shard nodes by map region.

    The network's bounding box is divided into a ``grid`` × ``grid``
    lattice of cells; each cell is a ring key, each trajectory belongs
    to the cell of its first sample.

    Args:
        network: The road network whose bounds define the lattice.
        node_ids: Shard-node members seeding the ring.
        grid: Cells per axis (``grid**2`` regions).
        virtual_nodes: Ring smoothing factor (see :class:`HashRing`).
        route: Routing key scheme.  ``"region"`` (the default) routes a
            trajectory by its first sample's grid cell — maximal map
            locality, but datasets whose trips start from a few hotspots
            pile onto whichever nodes own the hot cells.  ``"trid"``
            routes by trajectory id through the same ring — near-uniform
            shard *load*, which is what the ingest-scaling benchmark
            needs: an unbalanced split caps the parallel speedup at the
            largest shard's share.  Either scheme keeps the ring's
            deterministic rebalance-on-death semantics, and results are
            byte-identical under any partition.
    """

    def __init__(
        self,
        network: RoadNetwork,
        node_ids: Iterable[int],
        grid: int = 8,
        virtual_nodes: int = 64,
        route: str = "region",
    ) -> None:
        if grid < 1:
            raise ConfigError(f"grid must be >= 1, got {grid}")
        if route not in ("region", "trid"):
            raise ConfigError(
                f"route must be 'region' or 'trid', got {route!r}"
            )
        self.grid = grid
        self.route = route
        self.ring = HashRing(node_ids, virtual_nodes=virtual_nodes)
        if not len(self.ring):
            raise ConfigError("a shard map needs at least one node")
        min_x, min_y, max_x, max_y = network.bounds()
        self._origin = (min_x, min_y)
        self._cell_w = max((max_x - min_x) / grid, 1e-9)
        self._cell_h = max((max_y - min_y) / grid, 1e-9)
        self.rebalances = 0

    # ------------------------------------------------------------------
    def cell_key(self, x: float, y: float) -> str:
        """The ring key of the grid cell containing ``(x, y)``.

        Points outside the network bounds clamp to the border cells, so
        every coordinate has a well-defined owner.
        """
        col = min(self.grid - 1, max(0, int((x - self._origin[0]) / self._cell_w)))
        row = min(self.grid - 1, max(0, int((y - self._origin[1]) / self._cell_h)))
        return f"cell:{row}:{col}"

    def trajectory_key(self, trajectory: Trajectory) -> str:
        """The ring key a trajectory is routed by.

        The first sample's grid cell under ``route="region"``, the
        trajectory id under ``route="trid"``.
        """
        if self.route == "trid":
            return f"trid:{trajectory.trid}"
        start = trajectory.locations[0]
        return self.cell_key(start.x, start.y)

    def node_for_trajectory(self, trajectory: Trajectory) -> int:
        """The shard node owning a trajectory's home cell."""
        return self.ring.node_for(self.trajectory_key(trajectory))

    def shard(
        self, trajectories: Sequence[Trajectory]
    ) -> dict[int, list[Trajectory]]:
        """Partition trajectories across current members, by region.

        Every current member gets an entry (possibly empty); within a
        shard the input order is preserved, so two identical runs build
        byte-identical shards.
        """
        shards: dict[int, list[Trajectory]] = {
            node_id: [] for node_id in self.ring.node_ids
        }
        for trajectory in trajectories:
            shards[self.node_for_trajectory(trajectory)].append(trajectory)
        return shards

    def remove_node(self, node_id: int) -> bool:
        """Deterministic rebalance on node death; True when it was a member."""
        removed = self.ring.remove_node(node_id)
        if removed:
            self.rebalances += 1
        return removed

    def redispatch_order(self, shard: Sequence[Trajectory]) -> list[int]:
        """Surviving members in failover order for ``shard``.

        Keys the order on the shard's first trajectory (shards preserve
        input order, so this is stable): the node a rebalance would hand
        the region to comes first.
        """
        if not shard:
            return list(self.ring.node_ids)
        return self.ring.preference(self.trajectory_key(shard[0]))


def boundary_sids(
    partials: Iterable[Sequence[BaseCluster]],
) -> set[int]:
    """Segments whose fragments arrived from more than one shard.

    These are the partition's *boundary segments* — trajectories from
    different regions meeting on the same road.  The merge handles them
    exactly (Phase 1 is distributive); this function only surfaces how
    many there were, for the ``ring.boundary_segments`` counter and the
    ``/statusz`` shard table.
    """
    seen: set[int] = set()
    boundary: set[int] = set()
    for partial in partials:
        partial_sids = {cluster.sid for cluster in partial}
        boundary.update(partial_sids & seen)
        seen.update(partial_sids)
    return boundary
