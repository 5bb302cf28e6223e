"""The benchmark's inputs, and Phase 1's output on them, are pinned byte for byte.

``neatbench.inputs.trips`` routes every trip along a shortest path, so
a change to routing (kernel, tie-break, edge order) would silently
change what every benchmark workload measures.  These digests pin the
sid, x, y and t of every location of seed 7 of the workloads' recipes;
a routing change that moves a single sample fails here first.

The base-cluster digests pin what Phase 1 makes of those inputs: the
sid, trid and every location (junction points included) of every
fragment of every base cluster, in order.  Any change to fragmentation
or crossing inference has to reproduce them exactly.

The refinement stats pin Phase 3's counters on the batch recipes: the
pairs it checks, prunes and evaluates, and the searches it runs.  A
change to how Phase 3 builds its neighbour graph or plans its searches
has to keep them.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from neatbench import workloads  # noqa: E402
from neatbench.inputs import network_for, trips  # noqa: E402
from repro.core import NEAT, NEATConfig  # noqa: E402
from repro.core.base_cluster import form_base_clusters  # noqa: E402
from repro.core.refinement import RefinementStats  # noqa: E402

PINNED = {
    "DENSE": "c58f4768d27ab40cc1b3756df67de47a0411f780e4c703588ec7fa1de65c4032",
    "SPREAD": "45b7c4b6a14e80070f39a0ff0b2a4e68de150dc3213d8610576abcf328b80c6e",
    "STREAM": "b2effac9e9ca7ee809d584d5fdceab39f6ba056b1cd2e2148fcfc90e362bdf68",
}
BASE_CLUSTERS = {
    "DENSE": "39e6d7c79b5b5a9fd18f257c6ebf1a9d2444c6f0e3d81e26bf1d4d15bf62d1b7",
    "SPREAD": "f3d170886c5aaa64a6bd99bd2abd1a476331dd8771f5cee69b2eca1d4743eb86",
    "STREAM": "a368004409f4b6075c1dcaabb7a4b454edc873c26b8897bd1b0b8fe445e719f2",
}
#: ``RefinementStats(pair_checks, elb_pruned, hausdorff_evaluations,
#: shortest_path_computations)`` of opt-NEAT at the recipe's eps.
REFINEMENT_STATS = {
    "DENSE": RefinementStats(110, 4, 106, 18),
    "SPREAD": RefinementStats(5112, 872, 4240, 137),
}


@pytest.fixture(scope="module")
def seed7_trips():
    """``recipe -> (spec, trips)``, each recipe's seed 7 generated once per module."""
    made = {}

    def get(recipe: str):
        if recipe not in made:
            spec = getattr(workloads, recipe)
            made[recipe] = spec, tuple(trips(spec, network_for(spec), 7))
        return made[recipe]

    return get


def locations_digest(trajectories) -> str:
    """sha256 over ``(sid, x, y, t)`` of every location, in order."""
    digest = hashlib.sha256()
    pack = struct.Struct("<qddd").pack
    for trajectory in trajectories:
        for location in trajectory.locations:
            digest.update(pack(location.sid, location.x, location.y, location.t))
    return digest.hexdigest()


def base_clusters_digest(clusters) -> str:
    """sha256 over every base cluster's fragments and their locations, in order.

    Per cluster its sid and fragment count; per fragment its trid and
    location count; per location ``(sid, x, y, t, node_id)`` with -1 for
    an original sample.
    """
    digest = hashlib.sha256()
    head = struct.Struct("<qq").pack
    pack = struct.Struct("<qdddq").pack
    for cluster in clusters:
        digest.update(head(cluster.sid, len(cluster.fragments)))
        for fragment in cluster.fragments:
            digest.update(head(fragment.trid, len(fragment.locations)))
            for location in fragment.locations:
                node_id = -1 if location.node_id is None else location.node_id
                digest.update(pack(
                    location.sid, location.x, location.y, location.t, node_id
                ))
    return digest.hexdigest()


@pytest.mark.parametrize("recipe", sorted(PINNED))
def test_seed7_inputs_are_pinned(recipe, seed7_trips):
    _spec, trajectories = seed7_trips(recipe)
    assert locations_digest(trajectories) == PINNED[recipe]


@pytest.mark.parametrize("recipe", sorted(BASE_CLUSTERS))
def test_seed7_base_clusters_are_pinned(recipe, seed7_trips):
    spec, trajectories = seed7_trips(recipe)
    network = network_for(spec)
    cold = form_base_clusters(network, trajectories)
    assert base_clusters_digest(cold) == BASE_CLUSTERS[recipe]
    # A warm crossing table answers every pair from memory, identically.
    warm = form_base_clusters(network, trajectories)
    assert base_clusters_digest(warm) == BASE_CLUSTERS[recipe]


@pytest.mark.parametrize("recipe", sorted(REFINEMENT_STATS))
def test_seed7_refinement_stats_are_pinned(recipe, seed7_trips):
    spec, trajectories = seed7_trips(recipe)
    neat = NEAT(network_for(spec), NEATConfig(eps=spec.eps, workers=1))
    result = neat.run_opt(trajectories)
    assert result.refinement_stats == REFINEMENT_STATS[recipe]
    assert neat.engine.computations == REFINEMENT_STATS[recipe].shortest_path_computations


def test_spread_cold_table_searches_each_pair_once(seed7_trips):
    # The crossings of a non-adjacent segment pair cost at most its four
    # endpoint searches, once per network, however many samples cross it.
    spec, trajectories = seed7_trips("SPREAD")
    network = network_for(spec)
    changes = [
        (a.sid, b.sid)
        for trajectory in trajectories
        for a, b in zip(trajectory.locations, trajectory.locations[1:])
        if a.sid != b.sid
    ]
    non_adjacent = {
        pair for pair in set(changes) if network.common_junction(*pair) is None
    }
    form_base_clusters(network, trajectories)
    table = network.crossing_table()
    assert table.lookups == len(changes)
    assert len(table) == len(set(changes))
    assert 0 < table.searches <= 4 * len(non_adjacent)
