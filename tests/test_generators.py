"""Unit tests for the calibrated synthetic network generators."""

from __future__ import annotations

import pytest

from repro.roadnet.generators import (
    GridConfig,
    TABLE1_TARGETS,
    atlanta_like,
    generate_grid_network,
    miami_like,
    san_jose_like,
)
from repro.roadnet.stats import network_stats


class TestGridConfig:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridConfig(rows=1, cols=5)

    def test_rejects_large_jitter(self):
        with pytest.raises(ValueError):
            GridConfig(rows=3, cols=3, jitter=0.5)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            GridConfig(rows=3, cols=3, avg_degree=1.5)


class TestGenerateGridNetwork:
    def test_deterministic_for_seed(self):
        config = GridConfig(rows=8, cols=8, seed=42)
        a = generate_grid_network(config)
        b = generate_grid_network(config)
        assert a.segment_count == b.segment_count
        assert [s.endpoints for s in a.segments()] == [
            s.endpoints for s in b.segments()
        ]

    def test_different_seeds_differ(self):
        a = generate_grid_network(GridConfig(rows=8, cols=8, seed=1))
        b = generate_grid_network(GridConfig(rows=8, cols=8, seed=2))
        assert [s.endpoints for s in a.segments()] != [
            s.endpoints for s in b.segments()
        ]

    def test_connected(self):
        net = generate_grid_network(GridConfig(rows=10, cols=10, seed=3))
        reachable = net.csr().single_source(net.node_ids()[0])
        assert len(reachable) == net.junction_count

    def test_respects_max_degree(self):
        config = GridConfig(rows=10, cols=10, max_degree=5, hub_count=5, seed=4)
        net = generate_grid_network(config)
        assert max(net.degree(n) for n in net.node_ids()) <= 5

    def test_average_degree_near_target(self):
        config = GridConfig(rows=20, cols=20, avg_degree=2.8, seed=5)
        net = generate_grid_network(config)
        stats = network_stats(net)
        assert stats.avg_degree == pytest.approx(2.8, abs=0.15)

    def test_road_classes_present(self):
        net = generate_grid_network(GridConfig(rows=12, cols=12, seed=6))
        classes = {s.road_class for s in net.segments()}
        assert "local" in classes
        assert "arterial" in classes or "highway" in classes

    def test_speed_limits_by_class(self):
        net = generate_grid_network(GridConfig(rows=12, cols=12, seed=6))
        for segment in net.segments():
            if segment.road_class == "local":
                assert segment.speed_limit == pytest.approx(13.9)


class TestPresets:
    @pytest.mark.parametrize(
        "factory,region",
        [(atlanta_like, "ATL"), (san_jose_like, "SJ"), (miami_like, "MIA")],
    )
    def test_preset_tracks_table1(self, factory, region):
        scale = 0.05 if region != "MIA" else 0.01
        net = factory(scale=scale)
        stats = network_stats(net)
        junctions, segments, avg_len, _max_deg = TABLE1_TARGETS[region]
        # Junction count proportional to scale (within 25%).
        assert stats.junction_count == pytest.approx(junctions * scale, rel=0.25)
        # Average degree tracks the target ratio (within 10%).
        target_degree = 2.0 * segments / junctions
        assert stats.avg_degree == pytest.approx(target_degree, rel=0.10)
        # Average segment length within 15% of the paper's.
        assert stats.avg_segment_length_m == pytest.approx(avg_len, rel=0.15)

    def test_preset_connected(self):
        net = atlanta_like(scale=0.05)
        reachable = net.csr().single_source(net.node_ids()[0])
        assert len(reachable) == net.junction_count

    def test_preset_names(self):
        assert "ATL" in atlanta_like(scale=0.02).name
        assert "SJ" in san_jose_like(scale=0.02).name
        assert "MIA" in miami_like(scale=0.005).name
