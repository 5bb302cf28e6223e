"""Tests for incremental (online) NEAT clustering."""

from __future__ import annotations

import pytest

from repro.core.config import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.model import Trajectory
from repro.core.pipeline import NEAT
from repro.core.refinement import RefinementStats, refine_flow_clusters
from repro.errors import TrajectoryError

from conftest import recipe_input, trajectory_through


class TestBatching:
    def test_single_batch_matches_oneshot_flows(self, line3):
        trs = [trajectory_through(line3, i, [0, 1, 2]) for i in range(4)]
        config = NEATConfig(min_card=0, eps=500.0)
        incremental = IncrementalNEAT(line3, config)
        batch = incremental.add_batch(trs)
        oneshot = NEAT(line3, config).run_opt(trs)
        assert [f.sids for f in batch.new_flows] == [f.sids for f in oneshot.flows]
        assert len(batch.clusters) == len(oneshot.clusters)

    def test_flows_accumulate_across_batches(self, star4):
        config = NEATConfig(min_card=0, eps=1e6)
        incremental = IncrementalNEAT(star4, config)
        first = [trajectory_through(star4, i, [0, 1]) for i in range(3)]
        second = [trajectory_through(star4, 10 + i, [2, 3]) for i in range(3)]
        incremental.add_batch(first)
        result = incremental.add_batch(second)
        assert incremental.batch_count == 2
        assert len(incremental.flows) == 2
        # A generous eps merges everything into one global cluster.
        assert len(result.clusters) == 1

    def test_duplicate_ids_rejected(self, line3):
        incremental = IncrementalNEAT(line3, NEATConfig(min_card=0))
        trs = [trajectory_through(line3, 0, [0, 1])]
        incremental.add_batch(trs)
        with pytest.raises(ValueError):
            incremental.add_batch(trs)

    def test_junction_mark_off_its_junction_rejected(self, line3):
        # Recovery refuses a state holding such a location, so the batch
        # is refused and rolls back: the clusterer stays as it was.
        incremental = IncrementalNEAT(line3, NEATConfig(min_card=0))
        trajectory = trajectory_through(line3, 0, [0, 1])
        first = trajectory.locations[0]._replace(node_id=3)
        with pytest.raises(TrajectoryError, match="marks junction 3"):
            incremental.add_batch([
                Trajectory(0, (first, *trajectory.locations[1:]))
            ])
        assert incremental.batch_count == 0

    def test_auto_offset_reassigns_ids(self, line3):
        incremental = IncrementalNEAT(line3, NEATConfig(min_card=0))
        trs = [trajectory_through(line3, 0, [0, 1])]
        incremental.add_batch(trs)
        result = incremental.add_batch(trs, auto_offset_ids=True)
        participants = {
            trid for flow in result.new_flows for trid in flow.participants
        }
        assert 0 not in participants

    def test_empty_batch_refreshes_clusters_only(self, line3):
        config = NEATConfig(min_card=0, eps=500.0)
        incremental = IncrementalNEAT(line3, config)
        incremental.add_batch(
            [trajectory_through(line3, i, [0, 1]) for i in range(2)]
        )
        before = len(incremental.clusters)
        result = incremental.add_batch([])
        assert result.new_flows == []
        assert len(result.clusters) == before


class TestEngineAmortization:
    def test_shortest_path_cache_warms_across_batches(self, small_workload):
        network, dataset = small_workload
        config = NEATConfig(min_card=0, eps=500.0)
        incremental = IncrementalNEAT(network, config)
        trajectories = list(dataset)
        third = len(trajectories) // 3
        incremental.add_batch(trajectories[:third])
        after_first = incremental.engine.computations
        incremental.add_batch(trajectories[third: 2 * third], auto_offset_ids=False)
        second_growth = incremental.engine.computations - after_first
        # The pool grows, yet the warm cache keeps new Dijkstra work in
        # the same ballpark as the first batch rather than exploding
        # quadratically with the pool size.
        assert second_growth <= max(20, after_first * 4)

    def test_streaming_equals_global_segment_coverage(self, small_workload):
        """Streaming must find the same major corridors as one-shot."""
        network, dataset = small_workload
        config = NEATConfig(min_card=0, eps=500.0)
        incremental = IncrementalNEAT(network, config)
        trajectories = list(dataset)
        half = len(trajectories) // 2
        incremental.add_batch(trajectories[:half])
        incremental.add_batch(trajectories[half:])

        oneshot = NEAT(network, config).run_flow(trajectories)
        streaming_sids = {sid for f in incremental.flows for sid in f.sids}
        oneshot_sids = {sid for f in oneshot.flows for sid in f.sids}
        assert streaming_sids == oneshot_sids


class TestNeighbourGraph:
    """Each refresh decides only the pairs a batch adds."""

    def test_stream_counters_sum_to_one_shot_refine(self):
        # The service benchmark's stream, one trip per batch: the
        # per-refresh counters sum to one refine of the final pool.
        from neatbench.inputs import by_departure

        network, trajectories, eps = recipe_input("STREAM")
        config = NEATConfig(eps=eps)
        incremental = IncrementalNEAT(network, config)
        summed = RefinementStats()
        for trajectory in by_departure(trajectories):
            stats = incremental.add_batch([trajectory]).refinement_stats
            summed.pair_checks += stats.pair_checks
            summed.elb_pruned += stats.elb_pruned
            summed.hausdorff_evaluations += stats.hausdorff_evaluations
        oneshot = RefinementStats()
        clusters = refine_flow_clusters(
            network, incremental.flows, config, stats=oneshot
        )
        counts = (
            summed.pair_checks, summed.elb_pruned, summed.hausdorff_evaluations
        )
        assert counts == (
            oneshot.pair_checks, oneshot.elb_pruned, oneshot.hausdorff_evaluations
        ) == (6320, 3460, 2860)
        assert [[id(f) for f in c.flows] for c in clusters] == [
            [id(f) for f in c.flows] for c in incremental.clusters
        ]

    def test_prefix_rows_must_fit_the_flows(self, line3):
        flows = NEAT(line3, NEATConfig(min_card=0)).run_flow(
            [trajectory_through(line3, 0, [0, 1, 2])]
        ).flows
        with pytest.raises(ValueError, match="neighbour rows"):
            refine_flow_clusters(
                line3, flows, neighbours=[[] for _ in range(len(flows) + 1)]
            )
