"""Incremental Phase 3 equals a full refine, batch by batch.

:class:`~repro.core.incremental.IncrementalNEAT` keeps the retained
flows' eps-neighbour graph across batches and decides only the pairs a
batch adds.  On small random networks and streams (``min_pts`` 1-3, the
Euclidean lower bound on and off, empty batches included), after every
batch its clusters and neighbour rows must equal a fresh
:func:`~repro.core.refinement.refine_flow_clusters` over the same flows,
and the rows must equal the brute-force eps-graph.  A rolled-back batch
must leave the graph as it was, and a checkpoint-recover cycle must
rejoin the uninterrupted stream.
"""

from __future__ import annotations

import copy
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.model import Trajectory
from repro.core.refinement import flow_distance, refine_flow_clusters
from repro.errors import FaultInjected, TrajectoryError
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.resilience import FaultInjector, FaultPlan
from repro.roadnet.generators import GridConfig, generate_grid_network
from repro.roadnet.shortest_path import ShortestPathEngine


@st.composite
def streams(draw):
    """``(network, config, batches)``: a random stream over a random grid."""
    network = generate_grid_network(GridConfig(
        rows=draw(st.integers(min_value=4, max_value=6)),
        cols=draw(st.integers(min_value=4, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    ))
    dataset = list(simulate_dataset(
        network,
        SimulationConfig(
            object_count=draw(st.integers(min_value=3, max_value=14)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        ),
    ))
    sizes = draw(st.lists(
        st.integers(min_value=0, max_value=3), min_size=1, max_size=8
    ))
    batches, at = [], 0
    for size in sizes:
        batches.append(dataset[at:at + size])
        at += size
    if at < len(dataset):
        batches.append(dataset[at:])
    config = NEATConfig(
        min_card=0,
        eps=draw(st.floats(min_value=100.0, max_value=1200.0)),
        min_pts=draw(st.sampled_from([1, 2, 3])),
        use_elb=draw(st.booleans()),
    )
    return network, config, batches


def _key(clusters) -> list:
    """Clusters by id and member-flow identity."""
    return [(c.cluster_id, [id(flow) for flow in c.flows]) for c in clusters]


def _flow_key(clusters) -> list:
    """Clusters by id and member-flow content (flows rebuilt by recovery)."""
    return [
        (c.cluster_id, [(f.sids, sorted(f.participants)) for f in c.flows])
        for c in clusters
    ]


def _brute_force_graph(network, flows, eps) -> list[list[int]]:
    engine = ShortestPathEngine(network, directed=False)
    return [
        [
            j for j in range(len(flows))
            if j != i and flow_distance(engine, flows[i], flows[j]) <= eps
        ]
        for i in range(len(flows))
    ]


@settings(max_examples=40, deadline=None)
@given(streams())
def test_every_refresh_equals_a_full_refine(stream):
    network, config, batches = stream
    incremental = IncrementalNEAT(network, config)
    for batch in batches:
        incremental.add_batch(batch)
        flows = incremental.flows
        rows: list[list[int]] = []
        full = refine_flow_clusters(network, flows, config, neighbours=rows)
        assert _key(incremental.clusters) == _key(full)
        assert incremental._neighbours == rows
        assert rows == _brute_force_graph(network, flows, config.eps)

    searches = incremental.engine.computations
    empty = incremental.add_batch([]).refinement_stats
    assert empty.pair_checks == 0
    assert empty.shortest_path_computations == 0
    assert incremental.engine.computations == searches


@settings(max_examples=25, deadline=None)
@given(streams(), st.data())
def test_rolled_back_batch_leaves_the_graph_alone(stream, data):
    network, config, batches = stream
    batches = [batch for batch in batches if batch]
    assume(batches)
    split = data.draw(st.integers(min_value=1, max_value=len(batches)))
    with tempfile.TemporaryDirectory() as state_dir:
        faults = FaultInjector()
        incremental = IncrementalNEAT(network, config)
        incremental.enable_persistence(state_dir, fsync=False, faults=faults)
        for batch in batches[:split - 1]:
            incremental.add_batch(batch)
        before = copy.deepcopy(incremental._neighbours)
        failing = batches[split - 1]

        # Refused at admission: a trajectory on a segment the map lacks.
        bad = failing[0]
        unknown = bad.locations[0]._replace(sid=10**9)
        with pytest.raises(TrajectoryError, match="unknown segment"):
            incremental.add_batch(
                [*failing[1:], Trajectory(bad.trid, (unknown, *bad.locations[1:]))]
            )
        assert incremental._neighbours == before

        # Refused after the refresh extended the graph: the journal
        # append fails.
        faults.arm("journal.mid_append", FaultPlan(fail_nth=1))
        with pytest.raises(FaultInjected):
            incremental.add_batch(failing)
        faults.disarm("journal.mid_append")
        assert incremental._neighbours == before
        assert len(incremental.flows) == len(before)

        # The undone batch then goes in as if nothing had happened.
        incremental.add_batch(failing)
        rows: list[list[int]] = []
        full = refine_flow_clusters(
            network, incremental.flows, config, neighbours=rows
        )
        assert _key(incremental.clusters) == _key(full)
        assert incremental._neighbours == rows


@settings(max_examples=25, deadline=None)
@given(streams(), st.data())
def test_recovery_rejoins_the_uninterrupted_stream(stream, data):
    network, config, batches = stream
    split = data.draw(st.integers(min_value=1, max_value=len(batches)))
    uninterrupted = IncrementalNEAT(network, config)
    for batch in batches:
        uninterrupted.add_batch(batch)

    with tempfile.TemporaryDirectory() as state_dir:
        first = IncrementalNEAT(network, config)
        first.enable_persistence(state_dir, fsync=False)
        for batch in batches[:split]:
            first.add_batch(batch)
        first.checkpoint()
        recovered = IncrementalNEAT.recover(state_dir, network, config, fsync=False)
        # Recovery derives the graph and the clusters from the flows.
        assert recovered._neighbours == first._neighbours
        assert _flow_key(recovered.clusters) == _flow_key(first.clusters)
        for batch in batches[split:]:
            recovered.add_batch(batch)
        recovered.add_batch([])

    assert _flow_key(recovered.clusters) == _flow_key(uninterrupted.clusters)
    assert recovered._neighbours == uninterrupted._neighbours
