"""Property-based tests (hypothesis): Phase 2 in set time equals the reference.

:func:`repro.core.flow_formation.form_flow_clusters` counts netflow as one
set intersection, and each :class:`~repro.core.flow_cluster.FlowCluster`
keeps its participant set current as it grows.
``reference_phase2.form_flow_clusters`` counts shared trajectories one at
a time and rebuilds a flow's participants from its members on every read.
Over the random networks and trajectories of
``test_properties_phase1.py``, overlapping random walks and simulated
traces, with ``β``
infinite (every benchmark workload) or finite (the domination path) and
``minCard`` automatic or fixed, both must form:

* the same flows: the same base-cluster objects in the same order, the
  same open junctions, the same kept/noise split and ``minCard``;
* the same ``neat.phase2.*`` counters.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_cluster import form_base_clusters, group_fragments
from repro.core.config import NEATConfig
from repro.core.flow_formation import form_flow_clusters
from repro.core.fragmentation import fragment_trajectory
from repro.errors import NoPathError, UnknownSegmentError
from repro.obs.metrics import MetricsRegistry
from repro.roadnet.builder import star_network

import reference_phase2
from conftest import grid3x3_network, trajectory_through
from test_properties_network import workloads
from test_properties_phase1 import phase1_inputs

#: ``β``: infinite as on every benchmark workload, or finite so that
#: β-domination (Section III-B2) withholds f-neighbor pairs.
BETAS = st.sampled_from([math.inf, 1.01, 1.5, 2.0, 3.0])
#: ``minCard``: automatic (the mean cardinality) or fixed.
MIN_CARDS = st.sampled_from([None, 0, 1, 2, 3])
WEIGHTS = st.sampled_from([
    (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0),
])


@st.composite
def configs(draw) -> NEATConfig:
    wq, wk, wv = draw(WEIGHTS)
    return NEATConfig(
        beta=draw(BETAS), min_card=draw(MIN_CARDS), wq=wq, wk=wk, wv=wv
    )


@st.composite
def walks(draw) -> tuple:
    """Up to 24 random walks over a 3x3 grid or a 3- to 5-branch star.

    Many trajectories on few segments give f-neighbors whose mutual
    netflow can outweigh their netflow with the frontier, so a finite
    ``β`` withholds pairs here far more often than on scattered samples.
    """
    if draw(st.booleans()):
        network = grid3x3_network()
    else:
        network = star_network(draw(st.integers(3, 5)))
    trajectories = []
    for trid in range(draw(st.integers(2, 24))):
        sid = draw(st.sampled_from(network.segment_ids()))
        node = draw(st.sampled_from(network.segment(sid).endpoints))
        route = [sid]
        for _ in range(draw(st.integers(0, 4))):
            choices = network.adjacent_segments_at(sid, node)
            if not choices:
                break
            sid = draw(st.sampled_from(choices))
            node = network.segment(sid).other_endpoint(node)
            route.append(sid)
        trajectories.append(trajectory_through(network, trid, route))
    return network, trajectories


def _base_clusters(network, trajectories):
    """Phase 1 over the trajectories that fragment; the rest are dropped."""
    fragments = []
    for trajectory in trajectories:
        try:
            fragments.extend(fragment_trajectory(network, trajectory))
        except (UnknownSegmentError, NoPathError):
            continue
    return group_fragments(fragments)


def _flow_shape(flow) -> tuple:
    return (tuple(map(id, flow.members)), flow.front_node, flow.end_node)


def _assert_same(network, base_clusters, config) -> reference_phase2.ReferenceFormation:
    metrics = MetricsRegistry()
    production = form_flow_clusters(network, base_clusters, config, metrics=metrics)
    reference = reference_phase2.form_flow_clusters(network, base_clusters, config)
    assert [_flow_shape(f) for f in production.flows] == [
        _flow_shape(f) for f in reference.flows
    ]
    assert [_flow_shape(f) for f in production.noise_flows] == [
        _flow_shape(f) for f in reference.noise_flows
    ]
    assert production.min_card_used == reference.min_card_used
    assert [f.participants for f in production.all_flows] == [
        f.participants for f in reference.flows + reference.noise_flows
    ]
    published = {
        instrument.name: instrument.value
        for instrument in metrics
        if instrument.name.startswith("neat.phase2.")
    }
    assert published == reference.counters()
    return reference


class TestSetTimePhase2EqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(phase1_inputs(), configs())
    def test_random_trajectories(self, inputs, config):
        network, trajectories = inputs
        _assert_same(network, _base_clusters(network, trajectories), config)

    @settings(max_examples=150, deadline=None)
    @given(walks(), configs())
    def test_overlapping_walks(self, inputs, config):
        network, trajectories = inputs
        _assert_same(network, _base_clusters(network, trajectories), config)

    @settings(max_examples=25, deadline=None)
    @given(workloads(), configs())
    def test_simulated_traces(self, workload, config):
        network, dataset = workload
        _assert_same(network, _base_clusters(network, list(dataset)), config)

    def test_domination_withholds_the_same_pair(self, star4):
        # f(S, S1) = 5 and f(S, S2) = 2 against f(S1, S2) = 50: with β = 5
        # the S1-S2 pair is withheld from the dense-core S's flow and
        # forms its own.
        routes = [[0, 1]] * 5 + [[0, 2]] * 2 + [[1, 2]] * 50 + [[0]] * 60
        trajectories = [
            trajectory_through(star4, trid, route)
            for trid, route in enumerate(routes)
        ]
        base_clusters = form_base_clusters(star4, trajectories)
        config = NEATConfig(beta=5.0, min_card=0, wq=1.0, wk=0.0, wv=0.0)
        reference = _assert_same(star4, base_clusters, config)
        assert (1, 2) in [
            tuple(sorted(m.sid for m in f.members)) for f in reference.flows
        ]
