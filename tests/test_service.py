"""Tests for the in-process NEAT service facade."""

from __future__ import annotations

import pytest

from repro.core.config import NEATConfig
from repro.core.model import Location, Trajectory
from repro.core.serialize import result_from_dict
from repro.distributed.service import NeatService
from repro.errors import RetriesExhausted, TrajectoryError
from repro.resilience import FaultPlan, RetryPolicy

from conftest import trajectory_through


@pytest.fixture
def service(small_workload):
    network, dataset = small_workload
    return network, list(dataset), NeatService(network, NEATConfig(eps=500.0))


class TestSubmit:
    def test_acknowledgement_fields(self, service):
        _network, trajectories, svc = service
        ack = svc.submit(trajectories[:20])
        assert ack["batch"] == 0
        assert ack["accepted"] == 20
        assert ack["total_flows"] >= ack["new_flows"] >= 0

    def test_batches_accumulate(self, service):
        _network, trajectories, svc = service
        svc.submit(trajectories[:20])
        ack = svc.submit(trajectories[20:40])
        assert ack["batch"] == 1
        stats = svc.stats()
        assert stats.batches_ingested == 2
        assert stats.trajectories_ingested == 40

    def test_clients_need_not_coordinate_ids(self, service):
        # Two clients both submit trajectories ids 0..19: the service
        # re-ids internally, no collision.
        _network, trajectories, svc = service
        svc.submit(trajectories[:20])
        svc.submit(trajectories[:20])  # same ids again
        assert svc.stats().trajectories_ingested == 40


class TestSubmitErrorPaths:
    def test_malformed_batch_rejected_at_admission(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0))
        bad = Trajectory(0, (
            Location(999, 0.0, 0.0, 0.0), Location(999, 1.0, 0.0, 5.0),
        ))
        with pytest.raises(TrajectoryError, match="unknown segment"):
            svc.submit([bad])
        stats = svc.stats()
        assert stats.rejected_batches == 1
        assert stats.batches_ingested == 0
        assert stats.pending_batches == 0  # never admitted to the queue

    def test_duplicate_trids_in_batch_rejected(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0))
        duplicate = [
            trajectory_through(line3, 7, [0, 1]),
            trajectory_through(line3, 7, [1, 2]),
        ]
        with pytest.raises(TrajectoryError, match="duplicate"):
            svc.submit(duplicate)
        assert svc.stats().rejected_batches == 1

    def test_rejected_batch_does_not_poison_later_submits(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        with pytest.raises(TrajectoryError):
            svc.submit([
                trajectory_through(line3, 0, [0, 1]),
                trajectory_through(line3, 0, [0, 1]),
            ])
        svc.submit([trajectory_through(line3, i, [0, 1]) for i in range(3)])
        stats = svc.stats()
        assert stats.batches_ingested == 1
        assert stats.trajectories_ingested == 3

    def test_stats_after_failed_ingest(self, line3):
        svc = NeatService(
            line3, NEATConfig(min_card=0, eps=500.0),
            retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0),
        )
        svc.faults.arm("ingest", FaultPlan(fail_nth=(1, 2, 3)))
        with pytest.raises(RetriesExhausted):
            svc.submit([trajectory_through(line3, i, [0, 1]) for i in range(3)])
        stats = svc.stats()
        assert stats.retries == 2
        assert stats.pending_batches == 1  # batch kept for a later flush
        assert stats.batches_ingested == 0
        assert stats.trajectories_ingested == 0
        # The schedule is spent, so the queued batch recovers.
        assert svc.flush_pending() == 0
        assert svc.stats().batches_ingested == 1


class TestQueries:
    def test_clustering_document_round_trips(self, service):
        network, trajectories, svc = service
        svc.submit(trajectories[:30])
        document = svc.get_clustering()
        assert document["format"] == "repro-clustering"
        restored = result_from_dict(document, network)
        assert len(restored.flows) == svc.stats().flow_count

    def test_document_is_validated(self, service):
        _network, trajectories, svc = service
        svc.submit(trajectories[:30])
        svc.get_clustering()  # raises if invalid; reaching here is the test

    def test_flow_summaries(self, service):
        _network, trajectories, svc = service
        svc.submit(trajectories[:30])
        summaries = svc.get_flow_summaries()
        assert len(summaries) == svc.stats().flow_count
        for summary in summaries:
            assert summary["cardinality"] >= 1
            assert summary["route_length_m"] > 0
            assert len(summary["endpoints"]) == 2

    def test_empty_service_clustering(self, line3):
        # Query before any ingest: an empty (but fresh) document, not an
        # error — the service has validated "nothing yet" successfully.
        svc = NeatService(line3, NEATConfig(min_card=0))
        document = svc.get_clustering()
        assert document["flows"] == []
        assert document["clusters"] == []
        assert document["stale"] is False
        assert svc.stats().queries_served == 1


class TestEndToEnd:
    def test_streaming_session(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        for batch_start in range(0, 9, 3):
            batch = [
                trajectory_through(line3, batch_start + i, [0, 1, 2])
                for i in range(3)
            ]
            svc.submit(batch)
        stats = svc.stats()
        assert stats.batches_ingested == 3
        assert stats.flow_count == 3  # one flow per batch over the corridor
        document = svc.get_clustering()
        # All three flows merge into one cluster (identical routes).
        assert len(document["clusters"]) == 1


class TestQuarantine:
    """Bad trajectories are counted and skipped, not whole-batch fatal."""

    def _nan_trajectory(self, network, trid):
        import math

        return Trajectory(trid, (
            Location(0, math.nan, 0.0, 0.0),
            Location(1, 1.0, 0.0, 5.0),
        ))

    def test_nan_coordinate_quarantined_rest_ingested(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        batch = [
            trajectory_through(line3, 0, [0, 1]),
            self._nan_trajectory(line3, 1),
            trajectory_through(line3, 2, [1, 2]),
        ]
        ack = svc.submit(batch)
        assert ack["quarantined"] == 1
        stats = svc.stats()
        assert stats.quarantined_trajectories == 1
        assert stats.trajectories_ingested == 2
        assert stats.rejected_batches == 0

    def test_nan_timestamp_quarantined(self, line3):
        # NaN compares false to everything, so it slips past the
        # constructor's ordering check; admission must still catch it.
        import math

        svc = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        bad_time = Trajectory(1, (
            Location(0, 0.0, 0.0, math.nan),
            Location(1, 1.0, 0.0, 5.0),
        ))
        ack = svc.submit([trajectory_through(line3, 0, [0, 1]), bad_time])
        assert ack["quarantined"] == 1
        assert svc.stats().quarantined_trajectories == 1

    def test_junction_mark_off_its_junction_quarantined(self, line3):
        # Recovery refuses a state holding such a location, so admission
        # must keep it out: a sample marked as junction 3 sits elsewhere.
        svc = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        marked = Trajectory(1, (
            Location(0, 10.0, 0.0, 0.0, node_id=3),
            Location(1, 150.0, 0.0, 5.0),
        ))
        ack = svc.submit([trajectory_through(line3, 0, [0, 1]), marked])
        assert ack["quarantined"] == 1
        assert svc.stats().quarantined_trajectories == 1

    def test_all_bad_batch_still_rejected_whole(self, line3):
        svc = NeatService(line3, NEATConfig(min_card=0))
        with pytest.raises(TrajectoryError, match="unknown segment"):
            svc.submit([Trajectory(0, (
                Location(999, 0.0, 0.0, 0.0), Location(999, 1.0, 0.0, 5.0),
            ))])
        stats = svc.stats()
        assert stats.rejected_batches == 1
        assert stats.quarantined_trajectories == 0

    def test_duplicates_still_reject_whole_batch(self, line3):
        # Duplicate ids are a batch-level defect: no quarantine shortcut.
        svc = NeatService(line3, NEATConfig(min_card=0))
        with pytest.raises(TrajectoryError, match="duplicate"):
            svc.submit([
                trajectory_through(line3, 7, [0, 1]),
                self._nan_trajectory(line3, 7),
            ])
        assert svc.stats().quarantined_trajectories == 0

    def test_quarantine_does_not_skew_clustering(self, line3):
        clean = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        dirty = NeatService(line3, NEATConfig(min_card=0, eps=500.0))
        good = [trajectory_through(line3, i, [0, 1, 2]) for i in range(3)]
        clean.submit(good)
        dirty.submit(good + [self._nan_trajectory(line3, 99)])
        import json

        a = clean.get_clustering()
        b = dirty.get_clustering()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
