"""Tests for hotspot-area detection from flow endpoints."""

from __future__ import annotations


from repro.analysis.hotspot_detection import detect_hotspots
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT

from conftest import trajectory_through


class TestDetectHotspots:
    def test_two_corridors_sharing_a_terminal(self, star4):
        # Flows 0-1 and 2-3 both terminate at the star centre: the centre
        # area aggregates all traffic, the leaf ends stay separate.
        trs = [trajectory_through(star4, i, [0, 1]) for i in range(3)]
        trs += [trajectory_through(star4, 10 + i, [2, 3]) for i in range(2)]
        result = NEAT(star4, NEATConfig(min_card=0)).run_flow(trs)
        areas = detect_hotspots(star4, result.flows, radius=50.0)
        # Flow endpoints are leaves (the routes pass through the centre),
        # each leaf 200 m from another leaf via the centre: 4 areas.
        assert len(areas) == 4
        assert areas[0].terminating_cardinality >= areas[-1].terminating_cardinality

    def test_radius_merges_nearby_terminals(self, star4):
        trs = [trajectory_through(star4, i, [0, 1]) for i in range(3)]
        result = NEAT(star4, NEATConfig(min_card=0)).run_flow(trs)
        tight = detect_hotspots(star4, result.flows, radius=50.0)
        loose = detect_hotspots(star4, result.flows, radius=500.0)
        assert len(loose) <= len(tight)

    def test_empty_flows(self, line3):
        assert detect_hotspots(line3, []) == []

    def test_recovers_simulator_layout(self, small_workload):
        """The Figure 3 inversion: endpoints reveal the true hotspots."""
        network, dataset = small_workload
        result = NEAT(network, NEATConfig(min_card=3)).run_flow(dataset)
        areas = detect_hotspots(network, result.flows, radius=600.0)
        assert areas
        # The simulator's true anchor junctions (hotspots + destinations)
        # should appear inside the detected areas' neighbourhoods.
        truth = set(dataset.metadata["hotspots"]) | set(
            dataset.metadata["destinations"]
        )
        detected_nodes = set()
        for area in areas:
            detected_nodes.update(area.nodes)
        near_truth = 0
        for anchor in truth:
            reachable = network.csr().single_source(anchor, max_distance=800.0)
            if detected_nodes & set(reachable):
                near_truth += 1
        assert near_truth >= len(truth) * 0.6

    def test_cardinality_counts_distinct_trajectories(self, line3):
        trs = [trajectory_through(line3, i, [0, 1, 2]) for i in range(4)]
        result = NEAT(line3, NEATConfig(min_card=0)).run_flow(trs)
        areas = detect_hotspots(line3, result.flows, radius=50.0)
        total = max(a.terminating_cardinality for a in areas)
        assert total == 4
