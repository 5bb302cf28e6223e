"""Tests for the distributed preprocessing tier (Section II-C)."""

from __future__ import annotations

import pytest

from repro.core.base_cluster import form_base_clusters
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.distributed import (
    InProcessClient,
    NeatCoordinator,
    RemoteDataNode,
    ShardNode,
    merge_base_clusters,
)
from repro.obs import Telemetry
from repro.resilience import FaultPlan

from conftest import recipe_input, trajectory_through, wire_document


class TestMerge:
    def test_merge_equals_centralized(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        shards = [trajectories[i::4] for i in range(4)]
        partials = [form_base_clusters(network, shard) for shard in shards]
        merged = merge_base_clusters(partials)
        central = form_base_clusters(network, trajectories)
        assert [(c.sid, c.density) for c in merged] == [
            (c.sid, c.density) for c in central
        ]
        for m, c in zip(merged, central):
            assert m.participants == c.participants

    def test_merge_is_order_independent(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        shards = [trajectories[i::3] for i in range(3)]
        partials = [form_base_clusters(network, shard) for shard in shards]
        forward = merge_base_clusters(partials)
        backward = merge_base_clusters(list(reversed(partials)))
        assert [(c.sid, c.density) for c in forward] == [
            (c.sid, c.density) for c in backward
        ]

    def test_merge_empty(self):
        assert merge_base_clusters([]) == []


class TestInProcessNode:
    def test_preprocess_local_shard(self, line3):
        shard = ShardNode(line3)
        node = RemoteDataNode(0, InProcessClient(shard))
        node.ingest([trajectory_through(line3, i, [0, 1]) for i in range(3)])
        clusters = node.preprocess_batch(node.trajectories)
        assert {c.sid for c in clusters} == {0, 1}
        assert shard.stats()["trajectories_processed"] == 3


class TestCoordinator:
    @pytest.mark.parametrize("node_count", [1, 2, 5])
    def test_distributed_equals_centralized(self, small_workload, node_count):
        network, dataset = small_workload
        config = NEATConfig(eps=500.0)
        central = NEAT(network, config).run_opt(dataset)
        distributed = NeatCoordinator(
            network, config, node_count=node_count
        ).run(list(dataset), mode="opt")
        assert [f.sids for f in distributed.flows] == [
            f.sids for f in central.flows
        ]
        assert [
            sorted(tuple(f.sids) for f in c.flows) for c in distributed.clusters
        ] == [sorted(tuple(f.sids) for f in c.flows) for c in central.clusters]

    def test_modes(self, small_workload):
        network, dataset = small_workload
        coordinator = NeatCoordinator(network, NEATConfig(eps=500.0), node_count=2)
        base = coordinator.run(list(dataset), mode="base")
        assert base.base_clusters and not base.flows
        flow = coordinator.run(list(dataset), mode="flow")
        assert flow.flows and not flow.clusters

    def test_invalid_mode(self, small_workload):
        network, dataset = small_workload
        with pytest.raises(ValueError):
            NeatCoordinator(network).run(list(dataset), mode="hyper")

    def test_rerun_clears_previous_shards(self, small_workload):
        network, dataset = small_workload
        coordinator = NeatCoordinator(network, NEATConfig(eps=500.0), node_count=2)
        first = coordinator.run(list(dataset), mode="base")
        second = coordinator.run(list(dataset), mode="base")
        total_first = sum(c.density for c in first.base_clusters)
        total_second = sum(c.density for c in second.base_clusters)
        assert total_first == total_second  # no double ingestion

    def test_rejects_zero_nodes(self, line3):
        with pytest.raises(ValueError):
            NeatCoordinator(line3, node_count=0)

    def test_rejects_invalid_quorum(self, line3):
        with pytest.raises(ValueError):
            NeatCoordinator(line3, min_quorum=1.5)

    def test_more_nodes_than_trajectories(self, line3):
        # Regression: with node_count > len(trajectories), the shard map
        # leaves surplus shards empty; those must be skipped, not
        # dispatched (they used to be preprocessed as empty work units).
        trs = [trajectory_through(line3, i, [0, 1, 2]) for i in range(3)]
        config = NEATConfig(min_card=0, eps=500.0)
        central = NEAT(line3, config).run_opt(trs)
        coordinator = NeatCoordinator(line3, config, node_count=5)
        placement = {
            node_id: len(shard)
            for node_id, shard in coordinator.shardmap.shard(trs).items()
        }
        assert 0 in placement.values()
        distributed = coordinator.run(trs, mode="opt")
        assert [f.sids for f in distributed.flows] == [
            f.sids for f in central.flows
        ]
        assert distributed.dropped_shards == []
        # Surplus nodes got no shard and stay healthy and idle.
        assert coordinator.node_health() == {i: True for i in range(5)}
        assert [len(node.trajectories) for node in coordinator.nodes] == [
            placement[i] for i in range(5)
        ]
        served = [
            node.client.node.stats()["trajectories_processed"]
            for node in coordinator.nodes
        ]
        assert served == [placement[i] for i in range(5)]

    def test_rejects_duplicate_node_ids(self, line3):
        nodes = [
            RemoteDataNode(0, InProcessClient(ShardNode(line3)))
            for _ in range(2)
        ]
        with pytest.raises(ValueError):
            NeatCoordinator(line3, nodes=nodes)

    def test_empty_input_with_many_nodes(self, line3):
        result = NeatCoordinator(
            line3, NEATConfig(min_card=0), node_count=4
        ).run([], mode="base")
        assert result.base_clusters == []
        assert result.dropped_shards == []


class TestInProcessPhase3:
    """``remote_phase3`` over in-process nodes: the shard op handler runs
    the planned group spans, no process or socket involved.  One plan and
    one store path make every Phase 3 counter equal serial's, wherever
    the searches ran."""

    @staticmethod
    def run(network, trajectories, eps, node_count, plan=None):
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            network, NEATConfig(eps=eps), node_count=node_count,
            telemetry=telemetry, remote_phase3=True,
        )
        if plan is not None:
            coordinator.nodes[0].client.faults.arm("transport.node0", plan)
        result = coordinator.run(trajectories, mode="opt")
        return result, telemetry.metrics, coordinator

    @staticmethod
    def serial(network, trajectories, eps):
        neat = NEAT(network, NEATConfig(eps=eps))
        return neat.run(trajectories, mode="opt"), neat.engine

    @staticmethod
    def counters(result, engine):
        return {
            "searches": result.refinement_stats.shortest_path_computations,
            "computations": engine.computations,
            "cache_hits": engine.cache_hits,
            "nodes_expanded": engine.nodes_expanded,
            "grouped_searches": engine.grouped_searches,
        }

    @staticmethod
    def shard_groups(coordinator):
        return sum(
            node.client.node.stats()["distance_groups"]
            for node in coordinator.nodes
        )

    def test_matches_serial(self, small_workload):
        network, dataset = small_workload
        serial, serial_engine = self.serial(network, list(dataset), 6500.0)
        result, metrics, coordinator = self.run(
            network, list(dataset), 6500.0, 1
        )
        assert wire_document(result, network) == wire_document(serial, network)
        assert self.counters(result, coordinator.engine) == self.counters(
            serial, serial_engine
        )
        assert metrics.value("coordinator.phase3_remote_pairs") > 0
        # Every search ran on the shard, none locally.
        assert self.shard_groups(coordinator) == serial_engine.computations
        assert metrics.value("coordinator.phase3_local_fallbacks") == 0

    @pytest.mark.parametrize("node_count", [2, 3, 4])
    def test_counters_match_serial_at_any_node_count(
        self, small_workload, node_count
    ):
        network, dataset = small_workload
        serial, serial_engine = self.serial(network, list(dataset), 6500.0)
        result, metrics, coordinator = self.run(
            network, list(dataset), 6500.0, node_count
        )
        assert wire_document(result, network) == wire_document(serial, network)
        assert self.counters(result, coordinator.engine) == self.counters(
            serial, serial_engine
        )
        assert self.shard_groups(coordinator) == serial_engine.computations
        assert metrics.value("coordinator.phase3_local_fallbacks") == 0

    @pytest.mark.parametrize("node_count", [1, 2, 3, 4])
    def test_failed_slice_falls_back_locally(self, small_workload, node_count):
        network, dataset = small_workload
        serial, serial_engine = self.serial(network, list(dataset), 6500.0)
        # Call 1 is node 0's preprocess; calls 2 and 3 are its pipelined
        # and blocking distances calls.
        result, metrics, coordinator = self.run(
            network, list(dataset), 6500.0, node_count, FaultPlan(kill_from=2)
        )
        assert wire_document(result, network) == wire_document(serial, network)
        assert metrics.value("coordinator.phase3_local_fallbacks") == 1
        assert self.counters(result, coordinator.engine) == self.counters(
            serial, serial_engine
        )
        # Node 0's span ran inline; the other nodes ran the rest.
        assert self.shard_groups(coordinator) < serial_engine.computations

    @pytest.mark.parametrize("recipe, searches", [
        ("DENSE", 18), ("SPREAD", 137),
    ])
    def test_recipe_counters_match_serial(self, recipe, searches):
        network, trajectories, eps = recipe_input(recipe)
        serial, serial_engine = self.serial(network, trajectories, eps)
        expected = self.counters(serial, serial_engine)
        assert expected["searches"] == searches
        for node_count in (1, 2, 3, 4):
            result, _, coordinator = self.run(
                network, trajectories, eps, node_count
            )
            assert self.counters(result, coordinator.engine) == expected
            assert self.shard_groups(coordinator) == searches


class TestCoordinatorTelemetry:
    """A coordinator run reports like a serial run: phase timings, the
    run's spans and every Phase 2-3 and search counter.  ``neat.phase1.*``
    is counted on the data nodes, not here."""

    SEARCH_COUNTERS = (
        "roadnet.sp.computations",
        "roadnet.sp.nodes_expanded",
        "roadnet.sp.grouped_searches",
    )

    @classmethod
    def compared(cls, counters):
        return {
            name: value for name, value in counters.items()
            if name.startswith(("neat.phase2.", "neat.phase3."))
            or name in cls.SEARCH_COUNTERS
        }

    @pytest.mark.parametrize("remote_phase3", [False, True])
    @pytest.mark.parametrize("node_count", [1, 2, 4])
    def test_reports_like_serial(self, small_workload, node_count, remote_phase3):
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=6500.0)
        serial = NEAT(network, config).run(trajectories)
        result = NeatCoordinator(
            network, config, node_count=node_count,
            telemetry=Telemetry.create(), remote_phase3=remote_phase3,
        ).run(trajectories)

        timings = result.timings
        assert timings.base > 0.0 and timings.flow > 0.0 and timings.refine > 0.0
        (root,) = result.telemetry["trace"]
        assert root["name"] == "neat.run"
        assert [child["name"] for child in root["children"]] == [
            "phase1.fragmentation", "phase2.flow_formation", "phase3.refinement",
        ]
        expected = self.compared(serial.telemetry["metrics"]["counters"])
        assert set(self.SEARCH_COUNTERS) <= set(expected)
        assert any(name.startswith("neat.phase2.") for name in expected)
        counters = result.telemetry["metrics"]["counters"]
        assert self.compared(counters) == expected
        assert not any(name.startswith("neat.phase1.") for name in counters)

    def test_flow_mode_stops_after_phase2(self, small_workload):
        network, dataset = small_workload
        result = NeatCoordinator(
            network, NEATConfig(eps=500.0), node_count=2,
            telemetry=Telemetry.create(),
        ).run(list(dataset), mode="flow")
        assert result.timings.flow > 0.0 and result.timings.refine == 0.0
        (root,) = result.telemetry["trace"]
        assert [child["name"] for child in root["children"]] == [
            "phase1.fragmentation", "phase2.flow_formation",
        ]


class TestAltEngineIntegration:
    def test_neat_with_alt_engine_matches_plain(self, small_workload):
        from repro.roadnet.landmarks import LandmarkOracle
        from repro.roadnet.shortest_path import ShortestPathEngine

        network, dataset = small_workload
        config = NEATConfig(eps=500.0)
        plain = NEAT(network, config).run_opt(dataset)
        alt_engine = ShortestPathEngine(
            network, oracle=LandmarkOracle(network, landmark_count=6)
        )
        accelerated = NEAT(network, config, engine=alt_engine).run_opt(dataset)
        assert [
            sorted(tuple(f.sids) for f in c.flows) for c in accelerated.clusters
        ] == [sorted(tuple(f.sids) for f in c.flows) for c in plain.clusters]

    def test_directed_engine_rejected(self, line3):
        from repro.roadnet.shortest_path import ShortestPathEngine

        with pytest.raises(ValueError):
            NEAT(line3, engine=ShortestPathEngine(line3, directed=True))

    def test_oracle_on_directed_engine_rejected(self, line3):
        from repro.roadnet.landmarks import LandmarkOracle
        from repro.roadnet.shortest_path import ShortestPathEngine

        with pytest.raises(ValueError):
            ShortestPathEngine(
                line3, directed=True, oracle=LandmarkOracle(line3, 2)
            )
