"""Shared fixtures: canned networks, trajectories and datasets.

The ``paper_example`` fixture reconstructs the worked example of
Figure 1(b) of the NEAT paper — five trajectories over a star junction —
whose base-cluster densities, netflows and f-neighborhoods the paper
states explicitly; several test modules assert against those numbers.

Two Phase 3 references live here too, so the single production path can
be checked against something simpler than itself:
:func:`pairwise_reference` and :func:`dijkstra_reference_engine`.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core.model import Location, Trajectory
from repro.roadnet.builder import line_network, network_from_edges, star_network
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import ShortestPathEngine

from reference_sp import dijkstra_distance


def pairwise_reference():
    """Patch out the grouped prefetch: Phase 3 falls back to per-pair search.

    Inside this context every region query runs its own bounded
    point-to-point search, one per distinct pair. At ``workers=1`` that
    is exactly the per-pair oracle the grouped kernels replaced, counters
    included.
    """
    return mock.patch.object(
        ShortestPathEngine, "prefetch_grouped", lambda self, *args, **kwargs: 0
    )


class _DijkstraOracle:
    """Answers every distance with the dict-of-lists reference Dijkstra."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def distance(self, source: int, target: int) -> float:
        return dijkstra_distance(self.network, source, target)


def dijkstra_reference_engine(network: RoadNetwork) -> ShortestPathEngine:
    """An engine that bypasses the CSR kernels and the grouped prefetch.

    Plugged in through the public ``oracle`` hook, so a pipeline run on it
    is the plain-Dijkstra reference for cluster output.
    """
    return ShortestPathEngine(network, oracle=_DijkstraOracle(network))


def wire_document(result, network: RoadNetwork) -> str:
    """``result``'s canonical wire document, for byte-identity checks."""
    from repro.core.serialize import result_to_dict

    return json.dumps(
        result_to_dict(result, network_name=network.name), sort_keys=True
    )


class ReplyClient:
    """A node client that records each request and answers with ``reply``."""

    address = "fake"

    def __init__(self, reply=None) -> None:
        self.reply = reply
        self.requests: list[tuple[str, dict | None]] = []

    def start(self, op, payload=None):
        self.requests.append((op, payload))
        return None

    def finish(self, pending):
        return self.reply


def distances_payload(groups, cutoff) -> dict:
    """The ``distances`` request a remote node sends for ``groups``."""
    from repro.distributed.transport import RemoteDataNode

    client = ReplyClient()
    RemoteDataNode(0, client).start_distances(groups, cutoff)
    [(_, payload)] = client.requests
    return payload


def recipe_input(name: str):
    """Seed 7 of a neatbench recipe: its network, trips and eps."""
    import sys
    from pathlib import Path

    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from neatbench import workloads
    from neatbench.inputs import network_for, trips

    recipe = getattr(workloads, name)
    network = network_for(recipe)
    return network, trips(recipe, network, 7), recipe.eps


def trajectory_through(
    network: RoadNetwork, trid: int, sids: list[int], t0: float = 0.0
) -> Trajectory:
    """A trajectory sampled at the midpoint of each segment of a route.

    Consecutive sids must belong to connected segments; junction insertion
    during fragmentation recovers the crossings.
    """
    locations = []
    t = t0
    for sid in sids:
        length = network.segment(sid).length
        for fraction in (1.0 / 3.0, 2.0 / 3.0):
            point = network.point_on_segment(sid, length * fraction)
            locations.append(Location(sid, point.x, point.y, t))
            t += 5.0
    return Trajectory(trid, tuple(locations))


@pytest.fixture
def line3() -> RoadNetwork:
    """Three segments in a row: nodes 0-1-2-3, sids 0,1,2."""
    return line_network(3, segment_length=100.0)


@pytest.fixture
def star4() -> RoadNetwork:
    """Four segments radiating from node 0 (Figure 1(b)'s junction n2)."""
    return star_network(4, branch_length=100.0)


@pytest.fixture
def grid3x3() -> RoadNetwork:
    """A full 3x3 lattice: 9 nodes, 12 segments, spacing 100 m."""
    return grid3x3_network()


def grid3x3_network() -> RoadNetwork:
    """The ``grid3x3`` fixture's network, for module-scoped fixtures."""
    coordinates = [(c * 100.0, r * 100.0) for r in range(3) for c in range(3)]
    edges = []
    for r in range(3):
        for c in range(3):
            node = r * 3 + c
            if c < 2:
                edges.append((node, node + 1))
            if r < 2:
                edges.append((node, node + 3))
    return network_from_edges(coordinates, edges, name="grid3x3")


class PaperExample:
    """Figure 1(b): the network, trajectories, and expected quantities.

    Segment mapping (paper name -> sid): n1n2 -> s1, n2n3 -> s2,
    n2n4 -> s3, n2n5 -> s4, plus a helper spur at n1 (s5) that lets
    trajectory T3 leave and re-enter n1n2, giving n1n2 its four
    t-fragments from three trajectories as the paper states.
    """

    def __init__(self) -> None:
        network = star_network(4, branch_length=100.0, name="fig1b")
        # Star: node 0 = n2 (center); leaves 1..4 = n1, n3, n4, n5.
        # sids: s1=0 (n2-n1), s2=1 (n2-n3), s3=2 (n2-n4), s4=3 (n2-n5).
        spur_node = network.add_junction(
            network.node_point(1).translated(50.0, 50.0)
        )
        self.spur_sid = network.add_segment(1, spur_node)  # s5 = 4
        self.network = network
        self.center = 0
        self.s1, self.s2, self.s3, self.s4 = 0, 1, 2, 3

        def through(trid: int, sids: list[int]) -> Trajectory:
            return trajectory_through(network, trid, sids)

        self.trajectories = [
            through(1, [self.s1, self.s2]),              # T1: n1 -> n2 -> n3
            through(2, [self.s1, self.s3]),              # T2: n1 -> n2 -> n4
            # T3: n3 -> n2 -> n1 -> spur -> n1 -> n2 -> n5 (two s1 fragments)
            through(3, [self.s2, self.s1, self.spur_sid, self.s1, self.s4]),
            through(4, [self.s2]),                       # T4: on n2n3 only
            through(5, [self.s4]),                       # T5: on n2n5 only
        ]
        #: The paper's stated densities for S1..S4.
        self.expected_densities = {self.s1: 4, self.s2: 3, self.s3: 1, self.s4: 2}
        #: The paper's stated netflows.
        self.expected_netflows = {
            (self.s1, self.s2): 2,
            (self.s1, self.s3): 1,
            (self.s1, self.s4): 1,
            (self.s2, self.s3): 0,
            (self.s2, self.s4): 1,
        }


@pytest.fixture
def paper_example() -> PaperExample:
    return PaperExample()


@pytest.fixture
def small_workload():
    """A small ATL-like network with a 60-object dataset (module-scope cost)."""
    from repro.mobisim.simulator import SimulationConfig, simulate_dataset
    from repro.roadnet.generators import atlanta_like

    network = atlanta_like(scale=0.05, seed=5)
    dataset = simulate_dataset(
        network, SimulationConfig(object_count=60, seed=5, name="ATL60")
    )
    return network, dataset
