"""Deterministic benchmark inputs: a fixed map, fixed anchors, seeded trips.

Each workload names a :class:`Recipe`.  The road network and the hotspot /
destination layout are part of the recipe and never change with the seed,
so every seed produces the same *kind* of traffic; the seed draws the
trips themselves (start junction, destination, departure time, speed).
That keeps the amount of clustering work within a few percent across
seeds, which is what lets the medians of different seeds be compared.

Trips follow the paper's recipe (Section IV-A): objects leave a hotspot,
follow the shortest path to a destination drawn from a predefined set and
are sampled every ``sample_interval`` seconds.  Routes are memoized per
(start, destination) pair, so generation costs a few seconds at most.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.model import Location, Trajectory
from repro.errors import NoPathError
from repro.experiments.workloads import build_network
from repro.mobisim.agents import RouteWalk
from repro.mobisim.hotspots import choose_layout
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import shortest_route

#: The paper's Phase 3 threshold for ATL (eps = 6500 m at full scale).
PAPER_EPS_M = 6500.0

#: Seed of the fixed anchor layout (independent of the run seed).
LAYOUT_SEED = 11


@dataclass(frozen=True)
class Recipe:
    """What one workload clusters.

    Attributes:
        scale: ATL-like network scale (fraction of the paper's map).
        objects: Trips drawn per seed.
        hotspots: Start hotspots of the fixed layout.
        destinations: Size of the fixed destination set.
        sample_interval: Seconds between samples of a trip.
        eps_factor: Phase 3 eps as a multiple of the scaled paper value.
    """

    scale: float
    objects: int
    hotspots: int
    destinations: int
    sample_interval: float
    eps_factor: float = 1.0

    @property
    def eps(self) -> float:
        return PAPER_EPS_M * self.scale * self.eps_factor


def network_for(recipe: Recipe) -> RoadNetwork:
    """A fresh copy of the recipe's road network (no warm memo tables)."""
    return build_network("ATL", recipe.scale)


def trips(recipe: Recipe, network: RoadNetwork, seed: int) -> list[Trajectory]:
    """The seeded trajectories of ``recipe`` on ``network``."""
    layout = choose_layout(
        network,
        hotspot_count=recipe.hotspots,
        destination_count=recipe.destinations,
        seed=LAYOUT_SEED,
    )
    rng = random.Random(seed * 1_000_003 + 17)
    routes: dict[tuple[int, int], object] = {}
    out: list[Trajectory] = []
    for _ in range(50 * recipe.objects):
        if len(out) == recipe.objects:
            return out
        pool = layout.start_pool[rng.randrange(len(layout.hotspot_nodes))]
        start = rng.choice(pool)
        destination = rng.choice(layout.destination_nodes)
        start_time = rng.uniform(0.0, 300.0)
        speed_factor = rng.uniform(0.75, 1.0)
        if start == destination:
            continue
        key = (start, destination)
        if key not in routes:
            try:
                routes[key] = shortest_route(network, start, destination)
            except NoPathError:
                routes[key] = None
        route = routes[key]
        if route is None or not route.sids:
            continue
        walk = RouteWalk(network, route, start_time, speed_factor)
        locations = []
        for t in walk.sample_times(recipe.sample_interval):
            sample = walk.position_at(t)
            locations.append(Location(sample.sid, sample.point.x, sample.point.y, t))
        if len(locations) >= 2:
            out.append(Trajectory(len(out), tuple(locations)))
    if len(out) < recipe.objects:
        raise ValueError(f"only {len(out)} of {recipe.objects} trips are routable")
    return out


def by_departure(trajectories: list[Trajectory]) -> list[Trajectory]:
    """``trajectories`` in departure-time order (ties by id)."""
    return sorted(trajectories, key=lambda tr: (tr.locations[0].t, tr.trid))
