"""Property-based fuzz tests (hypothesis) for the distance-oracle tiers.

Admissibility invariants and one end-to-end invariance, fuzzed over
randomly generated road networks rather than example-tested:

* the Euclidean straight-line distance (Phase 3's prune bound) and the
  landmark (ALT) triangle-inequality bound (the ``LandmarkOracle``
  backend's A* heuristic) never exceed the exact network shortest-path
  distance for any node pair;
* no combination of grouped prefetch or the per-pair reference with ELB
  on or off changes the final clustering — pruning and batching are pure
  accelerations.
"""

from __future__ import annotations

import contextlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.core.serialize import result_to_dict
from repro.roadnet import INFINITY, LandmarkOracle

from conftest import pairwise_reference, trajectory_through
from reference_sp import dijkstra_distance
from test_csr import random_network

#: Relative tolerance for float round-off in bound comparisons.
TOL = 1e-9

seeds = st.integers(min_value=0, max_value=10_000)


class TestLowerBoundAdmissibility:
    @given(seed=seeds, pair_seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_euclidean_never_exceeds_network_distance(self, seed, pair_seed):
        network = random_network(seed, rows=5, cols=5)
        rng = random.Random(pair_seed)
        ids = network.node_ids()
        for _ in range(10):
            s, t = rng.choice(ids), rng.choice(ids)
            exact = dijkstra_distance(network, s, t)
            euclid = network.node_point(s).distance_to(network.node_point(t))
            if exact == INFINITY:
                continue  # disconnected: any finite bound is admissible
            assert euclid <= exact * (1.0 + TOL) + TOL

    @given(seed=seeds, pair_seed=seeds, count=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_landmark_never_exceeds_network_distance(
        self, seed, pair_seed, count
    ):
        network = random_network(seed, rows=5, cols=5)
        oracle = LandmarkOracle(network, landmark_count=count)
        rng = random.Random(pair_seed)
        ids = network.node_ids()
        for _ in range(10):
            s, t = rng.choice(ids), rng.choice(ids)
            exact = dijkstra_distance(network, s, t)
            bound = oracle.lower_bound(s, t)
            if exact == INFINITY:
                continue
            assert bound <= exact * (1.0 + TOL) + TOL


def _digest(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestTierInvariance:
    @given(
        seed=seeds,
        eps=st.floats(min_value=50.0, max_value=2000.0),
        trajectories=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_no_tier_combination_changes_clusters(
        self, seed, eps, trajectories
    ):
        network = random_network(seed, rows=4, cols=4)
        rng = random.Random(seed + 17)
        sids = [segment.sid for segment in network.segments()]
        dataset = [
            trajectory_through(network, trid, [rng.choice(sids)])
            for trid in range(trajectories)
        ]
        digests = set()
        for reference in (pairwise_reference, contextlib.nullcontext):
            for use_elb in (False, True):
                neat = NEAT(
                    network, NEATConfig(eps=eps, min_card=0, use_elb=use_elb)
                )
                with reference():
                    digests.add(_digest(neat.run_opt(dataset)))
        assert len(digests) == 1
