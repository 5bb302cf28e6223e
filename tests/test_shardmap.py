"""Tests for repro.distributed.shardmap: the consistent-hash region map.

The ring's two load-bearing properties — deterministic placement and
move-only-the-dead-node's-keys rebalance — plus region assignment,
failover preference ordering, boundary-segment detection, and the
coordinator running over a region shard map byte-identically to serial.
"""

from __future__ import annotations


import pytest

from repro.core.base_cluster import form_base_clusters
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.distributed import (
    HashRing,
    NeatCoordinator,
    RegionShardMap,
    boundary_sids,
)
from repro.errors import ConfigError

from conftest import trajectory_through, wire_document


class TestHashRing:
    def test_same_membership_same_placement(self):
        first = HashRing([0, 1, 2, 3])
        second = HashRing([3, 2, 1, 0])  # insertion order is irrelevant
        keys = [f"cell:{r}:{c}" for r in range(16) for c in range(16)]
        assert [first.node_for(k) for k in keys] == [
            second.node_for(k) for k in keys
        ]

    def test_membership_api(self):
        ring = HashRing([0, 1])
        assert len(ring) == 2 and 1 in ring and 5 not in ring
        assert ring.node_ids == (0, 1)
        assert ring.add_node(5) and not ring.add_node(5)  # idempotent
        assert ring.remove_node(5) and not ring.remove_node(5)

    def test_all_members_get_keys(self):
        ring = HashRing(range(4))
        owners = {ring.node_for(f"cell:{r}:{c}")
                  for r in range(32) for c in range(32)}
        assert owners == {0, 1, 2, 3}

    def test_removal_moves_only_the_removed_nodes_keys(self):
        ring = HashRing(range(5))
        keys = [f"cell:{r}:{c}" for r in range(32) for c in range(32)]
        before = {key: ring.node_for(key) for key in keys}
        assert ring.remove_node(2)
        moved = {key for key in keys if ring.node_for(key) != before[key]}
        assert moved  # node 2 did own something
        assert all(before[key] == 2 for key in moved)

    def test_preference_starts_at_owner_and_predicts_failover(self):
        ring = HashRing(range(4))
        key = "cell:3:3"
        order = ring.preference(key)
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] == ring.node_for(key)
        # Failover target = the node a real rebalance would pick.
        ring.remove_node(order[0])
        assert ring.node_for(key) == order[1]

    def test_empty_ring_rejected(self):
        ring = HashRing()
        assert ring.preference("k") == []
        with pytest.raises(ConfigError):
            ring.node_for("k")

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(ConfigError):
            HashRing([0], virtual_nodes=0)


class TestRegionShardMap:
    def test_every_trajectory_assigned_exactly_once(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        shardmap = RegionShardMap(network, [0, 1, 2])
        shards = shardmap.shard(trajectories)
        assert set(shards) == {0, 1, 2}
        flat = [tr for shard in shards.values() for tr in shard]
        assert sorted(tr.trid for tr in flat) == sorted(
            tr.trid for tr in trajectories
        )

    def test_sharding_is_deterministic_and_order_preserving(
        self, small_workload
    ):
        network, dataset = small_workload
        trajectories = list(dataset)
        first = RegionShardMap(network, [0, 1, 2]).shard(trajectories)
        second = RegionShardMap(network, [0, 1, 2]).shard(trajectories)
        assert first == second
        order = {tr.trid: i for i, tr in enumerate(trajectories)}
        for shard in first.values():
            ranks = [order[tr.trid] for tr in shard]
            assert ranks == sorted(ranks)

    def test_same_region_same_node(self, line3):
        # Trajectories starting on the same segment share a home cell.
        shardmap = RegionShardMap(line3, [0, 1, 2, 3])
        a = trajectory_through(line3, 1, [0, 1])
        b = trajectory_through(line3, 2, [0, 1, 2])
        assert shardmap.trajectory_key(a) == shardmap.trajectory_key(b)
        assert shardmap.node_for_trajectory(a) == shardmap.node_for_trajectory(b)

    def test_out_of_bounds_points_clamp_to_border_cells(self, line3):
        shardmap = RegionShardMap(line3, [0], grid=4)
        assert shardmap.cell_key(-1e9, -1e9) == "cell:0:0"
        assert shardmap.cell_key(1e9, 1e9) == "cell:3:3"

    def test_remove_node_counts_rebalances(self, line3):
        shardmap = RegionShardMap(line3, [0, 1, 2])
        assert shardmap.remove_node(1)
        assert not shardmap.remove_node(1)
        assert shardmap.rebalances == 1
        assert shardmap.ring.node_ids == (0, 2)

    def test_redispatch_order_leads_with_rebalance_target(self, line3):
        shardmap = RegionShardMap(line3, [0, 1, 2, 3])
        shard = [trajectory_through(line3, 1, [0, 1])]
        order = shardmap.redispatch_order(shard)
        assert sorted(order) == [0, 1, 2, 3]
        owner = shardmap.node_for_trajectory(shard[0])
        assert order[0] == owner
        shardmap.remove_node(owner)
        assert shardmap.node_for_trajectory(shard[0]) == order[1]

    def test_redispatch_order_for_empty_shard(self, line3):
        shardmap = RegionShardMap(line3, [2, 0, 1])
        assert shardmap.redispatch_order([]) == [0, 1, 2]

    def test_invalid_configuration_rejected(self, line3):
        with pytest.raises(ConfigError):
            RegionShardMap(line3, [])
        with pytest.raises(ConfigError):
            RegionShardMap(line3, [0], grid=0)


class TestBoundarySids:
    def test_detects_segments_spanning_shards(self, line3):
        a = form_base_clusters(line3, [trajectory_through(line3, 1, [0, 1])])
        b = form_base_clusters(line3, [trajectory_through(line3, 2, [1, 2])])
        assert boundary_sids([a, b]) == {1}

    def test_disjoint_partials_have_no_boundary(self, line3):
        a = form_base_clusters(line3, [trajectory_through(line3, 1, [0])])
        b = form_base_clusters(line3, [trajectory_through(line3, 2, [2])])
        assert boundary_sids([a, b]) == set()
        assert boundary_sids([]) == set()


class TestCoordinatorWithShardMap:
    def test_region_sharded_run_byte_identical_to_serial(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=500.0)
        serial = NEAT(network, config).run(trajectories, mode="opt")
        reference = wire_document(serial, network)
        for node_count in (1, 2, 4):
            coordinator = NeatCoordinator(
                network, config, node_count=node_count,
                shardmap=RegionShardMap(network, range(node_count)),
            )
            result = coordinator.run(trajectories, mode="opt")
            document = wire_document(result, network)
            assert document == reference, f"{node_count} nodes diverged"

    def test_boundary_segments_counted(self, small_workload):
        from repro.obs import Telemetry

        network, dataset = small_workload
        coordinator = NeatCoordinator(
            network, NEATConfig(eps=500.0), node_count=3,
            shardmap=RegionShardMap(network, [0, 1, 2]),
            telemetry=Telemetry.create(),
        )
        coordinator.run(list(dataset), mode="base")
        counter = coordinator.telemetry.metrics.get("ring.boundary_segments")
        assert counter is not None
