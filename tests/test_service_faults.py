"""Chaos suite: the service tier under injected faults.

Proves the acceptance behaviors of the robustness layer:

* a coordinator losing a data node still returns a valid ``NEATResult``
  equal to a centralized run over the surviving shards, reporting the
  loss in ``dropped_shards``;
* a service whose refresh fails serves the last validated snapshot
  flagged ``stale`` instead of raising;
* admission control, deadlines and the circuit breaker shed load
  explicitly;
* everything is deterministic under a seed — two identical chaos runs
  produce byte-identical telemetry counters.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.pipeline import NEAT
from repro.core.serialize import result_from_dict
from repro.core.validate import validate_result
from repro.distributed import NeatCoordinator, NeatService
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    NodeDown,
    QuorumLost,
    ReproError,
    RetriesExhausted,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.obs import Telemetry
from repro.resilience import CircuitBreaker, FaultPlan, RetryPolicy
from repro.core.model import Location, Trajectory

from conftest import trajectory_through


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


NO_BACKOFF = RetryPolicy(max_retries=0, base_delay_s=0.0, jitter=0.0)


def arm(node, plan):
    """Arm ``plan`` on an in-process node's ``transport.node{id}`` point."""
    node.client.faults.arm(f"transport.node{node.node_id}", plan)


def line_batch(network, start_trid, count=3, sids=(0, 1, 2)):
    return [
        trajectory_through(network, start_trid + i, list(sids))
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Coordinator chaos
# ----------------------------------------------------------------------
class TestCoordinatorFaults:
    def test_dead_node_yields_surviving_shard_result(self, small_workload):
        """FaultPlan(fail_nth=1), no retries, no re-dispatch: the result is
        exactly a centralized run over the surviving shards."""
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=500.0)
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            network, config, node_count=4,
            retry_policy=NO_BACKOFF, telemetry=telemetry, redispatch=False,
        )
        placement = coordinator.shardmap.shard(trajectories)
        assert placement[0]
        arm(coordinator.nodes[0], FaultPlan(fail_nth=1))

        result = coordinator.run(trajectories, mode="opt")

        assert result.dropped_shards == [0]
        lost = {t.trid for t in placement[0]}
        survivors = [t for t in trajectories if t.trid not in lost]
        central = NEAT(network, config).run_opt(survivors)
        assert [f.sids for f in result.flows] == [f.sids for f in central.flows]
        assert [
            sorted(tuple(f.sids) for f in c.flows) for c in result.clusters
        ] == [sorted(tuple(f.sids) for f in c.flows) for c in central.clusters]
        assert validate_result(result, network).ok
        assert coordinator.node_health() == {0: False, 1: True, 2: True, 3: True}
        counters = telemetry.metrics.as_dict()["counters"]
        assert counters["resilience.node_failures"] == 1
        assert counters["coordinator.shards_dropped"] == 1

    def test_transient_fault_recovered_by_retry(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=500.0)
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            network, config, node_count=4, telemetry=telemetry
        )
        arm(coordinator.nodes[0], FaultPlan(fail_nth=1))

        result = coordinator.run(trajectories, mode="opt")

        assert result.dropped_shards == []
        central = NEAT(network, config).run_opt(trajectories)
        assert [f.sids for f in result.flows] == [f.sids for f in central.flows]
        assert coordinator.node_health()[0] is True
        assert telemetry.metrics.value("resilience.retries") == 1

    def test_dead_node_shard_redispatched_to_survivors(self, small_workload):
        """kill_from=1: node 0 is down for good, but its shard is re-run on
        a surviving node — the merged result equals the full centralized
        run (Phase 1 is distributive)."""
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=500.0)
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            network, config, node_count=4, telemetry=telemetry, redispatch=True
        )
        arm(coordinator.nodes[0], FaultPlan(kill_from=1))

        result = coordinator.run(trajectories, mode="opt")

        assert result.dropped_shards == []
        central = NEAT(network, config).run_opt(trajectories)
        assert [f.sids for f in result.flows] == [f.sids for f in central.flows]
        assert coordinator.node_health()[0] is False
        counters = telemetry.metrics.as_dict()["counters"]
        assert counters["coordinator.shards_redispatched"] == 1
        assert counters["resilience.node_failures"] == 1

    def test_quorum_lost_when_too_many_shards_drop(self, line3):
        trajectories = line_batch(line3, 0, count=4)
        coordinator = NeatCoordinator(
            line3, NEATConfig(min_card=0), node_count=2,
            retry_policy=NO_BACKOFF, min_quorum=0.5,
        )
        for node in coordinator.nodes:
            arm(node, FaultPlan(kill_from=1))
        with pytest.raises(QuorumLost):
            coordinator.run(trajectories, mode="base")

    def test_zero_quorum_proceeds_with_nothing(self, line3):
        trajectories = line_batch(line3, 0, count=4)
        coordinator = NeatCoordinator(
            line3, NEATConfig(min_card=0), node_count=2,
            retry_policy=NO_BACKOFF,
        )
        placement = coordinator.shardmap.shard(trajectories)
        dispatched = [
            index for index, node in enumerate(coordinator.nodes)
            if placement[node.node_id]
        ]
        assert dispatched
        for node in coordinator.nodes:
            arm(node, FaultPlan(kill_from=1))
        result = coordinator.run(trajectories, mode="base")
        assert result.base_clusters == []
        assert result.dropped_shards == dispatched

    def test_dead_node_raises_node_down_directly(self, line3):
        coordinator = NeatCoordinator(line3, node_count=2)
        node = coordinator.nodes[0]
        node.kill()
        with pytest.raises(NodeDown):
            node.preprocess_batch(node.trajectories)
        node.revive()
        assert node.preprocess_batch(node.trajectories) == []

    def test_dropped_shards_in_wire_format(self, small_workload):
        from repro.core.serialize import result_to_dict

        network, dataset = small_workload
        trajectories = list(dataset)
        coordinator = NeatCoordinator(
            network, NEATConfig(eps=500.0), node_count=4,
            retry_policy=NO_BACKOFF, redispatch=False,
        )
        arm(coordinator.nodes[2], FaultPlan(kill_from=1))
        result = coordinator.run(trajectories, mode="opt")
        document = result_to_dict(result, network_name=network.name)
        assert document["dropped_shards"] == [2]
        restored = result_from_dict(document, network)
        assert restored.dropped_shards == [2]


# ----------------------------------------------------------------------
# Service chaos
# ----------------------------------------------------------------------
class TestServiceDegradedMode:
    def test_refresh_fault_serves_stale_snapshot(self, line3):
        service = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        service.submit(line_batch(line3, 0))
        fresh = service.get_clustering()
        assert fresh["stale"] is False

        service.faults.arm("refresh", FaultPlan(kill_from=1))
        degraded = service.get_clustering()

        assert degraded["stale"] is True
        unstale = dict(degraded)
        unstale["stale"] = False
        assert unstale == fresh  # same payload, only the flag differs
        assert service.stats().stale_queries == 1
        assert (
            service.telemetry.metrics.value("service.stale_queries") == 1
        )

    def test_stale_document_round_trips(self, line3):
        service = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        service.submit(line_batch(line3, 0))
        service.faults.arm("refresh", FaultPlan(kill_from=1))
        degraded = service.get_clustering()
        restored = result_from_dict(degraded, line3)
        assert len(restored.flows) == service.stats().flow_count

    def test_snapshot_comes_from_last_successful_ingest(self, line3):
        service = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        service.submit(line_batch(line3, 0))
        service.submit(line_batch(line3, 10))
        service.faults.arm("refresh", FaultPlan(kill_from=1))
        degraded = service.get_clustering()
        assert degraded["stale"] is True
        assert len(degraded["flows"]) == 2  # both batches' flows present

    def test_recovery_clears_degradation(self, line3):
        service = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        service.submit(line_batch(line3, 0))
        service.faults.arm("refresh", FaultPlan(fail_nth=(1, 2, 3)))
        assert service.get_clustering()["stale"] is True
        service.faults.disarm("refresh")
        assert service.get_clustering()["stale"] is False
        assert service.stats().stale_queries == 1

    def test_no_snapshot_means_unavailable(self, line3):
        service = NeatService(
            line3, NEATConfig(min_card=0), retry_policy=NO_BACKOFF
        )
        service.faults.arm("refresh", FaultPlan(kill_from=1))
        with pytest.raises(ServiceUnavailable):
            service.get_clustering()


class TestServiceAdmissionControl:
    def test_overload_rejection_when_queue_full(self, line3):
        config = NEATConfig(min_card=0, eps=500.0, max_pending=2)
        service = NeatService(line3, config, retry_policy=NO_BACKOFF)
        service.faults.arm("ingest", FaultPlan(kill_from=1))

        for start in (0, 10):
            with pytest.raises(RetriesExhausted):
                service.submit(line_batch(line3, start))
        assert service.pending_batches == 2

        with pytest.raises(ServiceOverloaded):
            service.submit(line_batch(line3, 20))
        stats = service.stats()
        assert stats.overload_rejections == 1
        assert stats.batches_ingested == 0

    def test_flush_pending_recovers_queued_batches(self, line3):
        config = NEATConfig(min_card=0, eps=500.0, max_pending=4)
        service = NeatService(line3, config, retry_policy=NO_BACKOFF)
        service.faults.arm("ingest", FaultPlan(kill_from=1))
        for start in (0, 10):
            with pytest.raises(RetriesExhausted):
                service.submit(line_batch(line3, start))
        service.faults.disarm("ingest")

        assert service.flush_pending() == 0
        stats = service.stats()
        assert stats.batches_ingested == 2
        assert stats.pending_batches == 0
        assert len(service.get_clustering()["flows"]) == 2

    def test_queue_drains_oldest_first_on_next_submit(self, line3):
        config = NEATConfig(min_card=0, eps=500.0)
        service = NeatService(line3, config, retry_policy=NO_BACKOFF)
        service.faults.arm("ingest", FaultPlan(fail_nth=1))
        with pytest.raises(RetriesExhausted):
            service.submit(line_batch(line3, 0))
        # The next submit first retries the stuck batch, then its own.
        ack = service.submit(line_batch(line3, 10))
        assert service.pending_batches == 0
        assert service.stats().batches_ingested == 2
        assert ack["batch"] == 1  # the caller's batch was the second ingested


class TestServiceBreakerAndDeadline:
    def test_breaker_trips_and_recovers(self, line3):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "service.ingest", failure_threshold=2, recovery_s=10.0, clock=clock
        )
        config = NEATConfig(min_card=0, eps=500.0, max_pending=8)
        service = NeatService(
            line3, config, retry_policy=NO_BACKOFF,
            breaker=breaker, clock=clock,
        )
        service.faults.arm("ingest", FaultPlan(kill_from=1))
        for start in (0, 10):
            with pytest.raises(RetriesExhausted):
                service.submit(line_batch(line3, start))
        # Two consecutive batch failures tripped the breaker: the next
        # submit is shed immediately, without touching ingestion.
        with pytest.raises(CircuitOpenError):
            service.submit(line_batch(line3, 20))
        assert service.stats().breaker_trips == 1
        assert service.pending_batches == 3

        service.faults.disarm("ingest")
        clock.advance(10.0)  # recovery: half-open admits a trial call
        assert service.flush_pending() == 0
        assert service.breaker.state == CircuitBreaker.CLOSED
        assert service.stats().batches_ingested == 3

    def test_submit_deadline_aborts_backoff(self, line3):
        clock = FakeClock()
        config = NEATConfig(min_card=0, eps=500.0, deadline_s=1.0)
        service = NeatService(
            line3, config, clock=clock,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay_s=5.0, jitter=0.0
            ),
        )
        service.faults.arm("ingest", FaultPlan(kill_from=1))
        with pytest.raises(DeadlineExceeded):
            service.submit(line_batch(line3, 0))
        assert service.stats().deadline_exceeded == 1

    def test_per_call_deadline_overrides_config(self, line3):
        clock = FakeClock()
        service = NeatService(
            line3, NEATConfig(min_card=0, eps=500.0), clock=clock,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay_s=5.0, jitter=0.0
            ),
        )
        service.faults.arm("ingest", FaultPlan(kill_from=1))
        with pytest.raises(DeadlineExceeded):
            service.submit(line_batch(line3, 0), deadline_s=2.0)

    def test_query_deadline_has_no_stale_fallback(self, line3):
        clock = FakeClock()
        service = NeatService(
            line3, NEATConfig(min_card=0, eps=500.0), clock=clock,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay_s=5.0, jitter=0.0
            ),
        )
        service.submit(line_batch(line3, 0))
        service.faults.arm("refresh", FaultPlan(kill_from=1))
        with pytest.raises(DeadlineExceeded):
            service.get_clustering(deadline_s=1.0)
        assert service.stats().stale_queries == 0


class TestIngestRollback:
    def test_failed_batch_leaves_clusterer_untouched(self, line3):
        incremental = IncrementalNEAT(line3, NEATConfig(min_card=0, eps=500.0))
        incremental.add_batch(line_batch(line3, 0))
        flows_before = [f.sids for f in incremental.flows]

        bad = Trajectory(99, (
            Location(999, 0.0, 0.0, 0.0), Location(999, 1.0, 0.0, 5.0),
        ))
        with pytest.raises(ReproError):
            incremental.add_batch([bad], auto_offset_ids=False)

        assert [f.sids for f in incremental.flows] == flows_before
        assert incremental.batch_count == 1
        # The stream continues cleanly after the rollback.
        result = incremental.add_batch(line_batch(line3, 10))
        assert result.batch_index == 1
        assert len(incremental.flows) == 2
        assert (
            incremental.telemetry.metrics.value(
                "incremental.rolled_back_batches"
            ) == 1
        )


# ----------------------------------------------------------------------
# Determinism: identical chaos runs -> byte-identical counters
# ----------------------------------------------------------------------
class TestDeterminism:
    @staticmethod
    def _service_chaos_run(line3):
        policy = RetryPolicy(max_retries=2, base_delay_s=0.1, jitter=0.5, seed=42)
        slept: list[float] = []
        service = NeatService(
            line3, NEATConfig(min_card=0, eps=500.0, max_pending=2),
            retry_policy=policy, sleep=slept.append,
        )
        service.faults.arm("ingest", FaultPlan(fail_nth=1))
        service.submit(line_batch(line3, 0))  # fails once, jittered retry wins
        service.faults.arm("refresh", FaultPlan(kill_from=1))
        service.get_clustering()  # stale
        service.get_clustering()  # stale again
        counters = service.metrics_snapshot()["metrics"]["counters"]
        return json.dumps(counters, sort_keys=True), tuple(slept)

    def test_service_chaos_counters_are_byte_identical(self, line3):
        first_counters, first_sleeps = self._service_chaos_run(line3)
        second_counters, second_sleeps = self._service_chaos_run(line3)
        assert first_counters == second_counters
        assert first_sleeps == second_sleeps
        assert first_sleeps  # the jittered backoff actually ran

    @staticmethod
    def _coordinator_chaos_run(network, trajectories):
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            network, NEATConfig(eps=500.0), node_count=4,
            retry_policy=RetryPolicy(
                max_retries=1, base_delay_s=0.0, jitter=0.0
            ),
            telemetry=telemetry, redispatch=True,
        )
        arm(coordinator.nodes[1], FaultPlan(kill_from=1))
        result = coordinator.run(trajectories, mode="opt")
        counters = telemetry.metrics.as_dict()["counters"]
        return json.dumps(counters, sort_keys=True), [
            tuple(f.sids) for f in result.flows
        ]

    def test_coordinator_chaos_counters_are_byte_identical(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        first = self._coordinator_chaos_run(network, trajectories)
        second = self._coordinator_chaos_run(network, trajectories)
        assert first == second
