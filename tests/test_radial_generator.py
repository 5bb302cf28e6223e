"""Tests for the radial (ring-and-spoke) network generator."""

from __future__ import annotations

import pytest

from repro.roadnet.generators import RadialConfig, generate_radial_network


class TestRadialConfig:
    def test_rejects_too_few_spokes(self):
        with pytest.raises(ValueError):
            RadialConfig(rings=2, spokes=2)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            RadialConfig(ring_keep_fraction=0.0)


class TestGenerateRadial:
    def test_node_count(self):
        net = generate_radial_network(RadialConfig(rings=3, spokes=6, seed=1))
        assert net.junction_count == 1 + 3 * 6

    def test_connected(self):
        net = generate_radial_network(RadialConfig(rings=4, spokes=7, seed=2))
        reachable = net.csr().single_source(0)
        assert len(reachable) == net.junction_count

    def test_center_degree_equals_spokes(self):
        net = generate_radial_network(RadialConfig(rings=3, spokes=5, seed=3))
        assert net.degree(0) == 5

    def test_spokes_are_arterial(self):
        net = generate_radial_network(RadialConfig(rings=2, spokes=4, seed=4))
        arterials = [s for s in net.segments() if s.road_class == "arterial"]
        assert len(arterials) == 2 * 4  # rings x spokes

    def test_ring_thinning(self):
        full = generate_radial_network(
            RadialConfig(rings=3, spokes=8, ring_keep_fraction=1.0, seed=5)
        )
        thinned = generate_radial_network(
            RadialConfig(rings=3, spokes=8, ring_keep_fraction=0.5, seed=5)
        )
        assert thinned.segment_count < full.segment_count

    def test_deterministic(self):
        config = RadialConfig(rings=3, spokes=6, seed=6)
        a = generate_radial_network(config)
        b = generate_radial_network(config)
        assert [s.endpoints for s in a.segments()] == [
            s.endpoints for s in b.segments()
        ]

    def test_neat_runs_on_radial(self):
        """NEAT works on ring-and-spoke topologies, not just grids."""
        from repro.core.config import NEATConfig
        from repro.core.pipeline import NEAT
        from repro.mobisim.simulator import SimulationConfig, simulate_dataset

        net = generate_radial_network(RadialConfig(rings=5, spokes=10, seed=7))
        dataset = simulate_dataset(net, SimulationConfig(object_count=40, seed=7))
        result = NEAT(net, NEATConfig(eps=600.0, min_card=0)).run_opt(dataset)
        assert result.flows
        assert result.clusters
