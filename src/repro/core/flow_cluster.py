"""Flow clusters: ordered base-cluster lists whose segments form a route.

Implements Definition 8 of the paper.  A flow cluster grows from a seed
base cluster by appending/prepending f-neighbors, so it always maintains
its two *open endpoints* — the junctions at which Phase 2 may extend it —
and its representative route ``r_F`` (the concatenation of its members'
representative road segments).
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ClusteringError
from ..roadnet.network import RoadNetwork
from .base_cluster import BaseCluster


class FlowCluster:
    """An ordered list of base clusters forming a route (Definition 8).

    Args:
        network: The road network the members' segments belong to.
        seed: The initial base cluster; both endpoints of its segment are
            open for expansion.
    """

    def __init__(self, network: RoadNetwork, seed: BaseCluster) -> None:
        segment = network.segment(seed.sid)
        self._network = network
        self._members: list[BaseCluster] = [seed]
        #: Junction at which the flow can grow by prepending.
        self.front_node: int = segment.node_u
        #: Junction at which the flow can grow by appending.
        self.end_node: int = segment.node_v
        # ``PTr(F)``, grown in place by each append/prepend, so Phase 2's
        # netflow with the flow is one set intersection (Definition 5).
        self._trids: set[int] = set(seed.participants)
        # Memoized views, reset whenever the member list changes.
        self._participants: frozenset[int] | None = None
        self._sids: tuple[int, ...] | None = None
        self._route_length: float | None = None

    @classmethod
    def from_members(
        cls, network: RoadNetwork, members: "list[BaseCluster]"
    ) -> "FlowCluster":
        """Rebuild a flow from an ordered member list (deserialization).

        The first two members fix the route orientation; a single-member
        flow keeps the seed's natural ``(node_u, node_v)`` orientation.
        """
        if not members:
            raise ClusteringError("a flow cluster needs at least one member")
        flow = cls(network, members[0])
        if len(members) > 1:
            junction = network.common_junction(members[0].sid, members[1].sid)
            if junction is None:
                raise ClusteringError(
                    f"members {members[0].sid} and {members[1].sid} are not "
                    "adjacent"
                )
            if flow.end_node != junction:
                flow.front_node, flow.end_node = flow.end_node, flow.front_node
            for member in members[1:]:
                flow.append(member)
        return flow

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def append(self, cluster: BaseCluster) -> None:
        """Extend the flow at its end junction with ``cluster``.

        The cluster's segment must be incident to the current end node
        (i.e. the cluster is an f-neighbor candidate at that node).
        """
        segment = self._network.segment(cluster.sid)
        if not segment.has_endpoint(self.end_node):
            raise ClusteringError(
                f"segment {cluster.sid} does not touch flow end junction "
                f"{self.end_node}"
            )
        self._members.append(cluster)
        self.end_node = segment.other_endpoint(self.end_node)
        self._grown_by(cluster)

    def prepend(self, cluster: BaseCluster) -> None:
        """Extend the flow at its front junction with ``cluster``."""
        segment = self._network.segment(cluster.sid)
        if not segment.has_endpoint(self.front_node):
            raise ClusteringError(
                f"segment {cluster.sid} does not touch flow front junction "
                f"{self.front_node}"
            )
        self._members.insert(0, cluster)
        self.front_node = segment.other_endpoint(self.front_node)
        self._grown_by(cluster)

    def _grown_by(self, cluster: BaseCluster) -> None:
        self._trids |= cluster.participants
        self._participants = None
        self._sids = None
        self._route_length = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The road network the flow's segments belong to."""
        return self._network

    @property
    def members(self) -> tuple[BaseCluster, ...]:
        """The member base clusters in route order."""
        return tuple(self._members)

    @property
    def sids(self) -> tuple[int, ...]:
        """The representative route ``r_F`` as a segment-id sequence."""
        if self._sids is None:
            self._sids = tuple(member.sid for member in self._members)
        return self._sids

    @property
    def endpoints(self) -> tuple[int, int]:
        """The two ends ``(front_node, end_node)`` of the representative route."""
        return (self.front_node, self.end_node)

    def route_nodes(self) -> list[int]:
        """The junction sequence of the representative route, front to end."""
        nodes = [self.front_node]
        current = self.front_node
        for member in self._members:
            current = self._network.segment(member.sid).other_endpoint(current)
            nodes.append(current)
        return nodes

    @property
    def route_length(self) -> float:
        """Length of the representative route in metres."""
        if self._route_length is None:
            self._route_length = sum(
                self._network.segment(sid).length for sid in self.sids
            )
        return self._route_length

    @property
    def participants(self) -> frozenset[int]:
        """``PTr(F)``: union of member participant sets."""
        if self._participants is None:
            self._participants = frozenset(self._trids)
        return self._participants

    @property
    def trajectory_cardinality(self) -> int:
        """``|PTr(F)|``: distinct trajectories passing through the flow."""
        return len(self._trids)

    @property
    def density(self) -> int:
        """Total t-fragment count across members."""
        return sum(member.density for member in self._members)

    def netflow_with(self, cluster: BaseCluster) -> int:
        """``f(F, S)``: trajectories shared between this flow and ``S``."""
        return len(self._trids & cluster.participants)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[BaseCluster]:
        return iter(self._members)

    def __repr__(self) -> str:
        return (
            f"FlowCluster(segments={len(self._members)}, "
            f"cardinality={self.trajectory_cardinality}, "
            f"route_length={self.route_length:.0f}m)"
        )
