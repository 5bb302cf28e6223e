"""Property-based tests over the whole pipeline and its extensions.

Uses :func:`repro.core.validate.validate_result` as the well-formedness
oracle: for arbitrary generated networks/workloads/configurations, every
NEAT variant, the distributed coordinator, serialization round-trips and
preprocessing must produce results that pass the full invariant check.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.core.validate import validate_result
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.roadnet.generators import GridConfig, generate_grid_network


@st.composite
def workloads(draw):
    config = GridConfig(
        rows=draw(st.integers(min_value=4, max_value=8)),
        cols=draw(st.integers(min_value=4, max_value=8)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    network = generate_grid_network(config)
    dataset = simulate_dataset(
        network,
        SimulationConfig(
            object_count=draw(st.integers(min_value=3, max_value=10)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        ),
    )
    return network, dataset


@st.composite
def neat_configs(draw):
    wq = draw(st.floats(min_value=0.0, max_value=1.0))
    wk = draw(st.floats(min_value=0.0, max_value=1.0 - wq))
    wv = 1.0 - wq - wk
    return NEATConfig(
        wq=wq, wk=wk, wv=max(0.0, wv),
        beta=draw(st.sampled_from([1.5, 3.0, 10.0, math.inf])),
        min_card=draw(st.sampled_from([None, 0, 1, 2])),
        eps=draw(st.floats(min_value=50.0, max_value=1500.0)),
        use_elb=draw(st.booleans()),
    )


class TestPipelineProperties:
    @given(workloads(), neat_configs(), st.sampled_from(["base", "flow", "opt"]))
    @settings(max_examples=20, deadline=None)
    def test_every_run_is_structurally_valid(self, workload, config, mode):
        network, dataset = workload
        result = NEAT(network, config).run(dataset, mode=mode)
        report = validate_result(result, network)
        assert report.ok, report.errors

    @given(
        workloads(),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["region", "trid"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_distributed_is_valid_and_matches_centralized(
        self, workload, node_count, route
    ):
        from repro.distributed import NeatCoordinator, RegionShardMap

        network, dataset = workload
        config = NEATConfig(min_card=0, eps=400.0)
        shardmap = RegionShardMap(network, range(node_count), route=route)
        distributed = NeatCoordinator(
            network, config, node_count, shardmap=shardmap
        ).run(list(dataset))
        assert validate_result(distributed, network).ok
        central = NEAT(network, config).run_opt(dataset)
        assert [f.sids for f in distributed.flows] == [
            f.sids for f in central.flows
        ]

    @given(workloads(), neat_configs())
    @settings(max_examples=10, deadline=None)
    def test_serialization_roundtrip_stays_valid(self, workload, config):
        from repro.core.serialize import result_from_dict, result_to_dict

        network, dataset = workload
        result = NEAT(network, config).run_opt(dataset)
        restored = result_from_dict(result_to_dict(result), network)
        assert validate_result(restored, network).ok
        assert [f.sids for f in restored.flows] == [f.sids for f in result.flows]


class TestPreprocessProperties:
    time_series = st.lists(
        st.tuples(
            st.floats(min_value=-1000, max_value=1000, allow_nan=False),
            st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
    )

    @given(time_series, st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=50)
    def test_split_conserves_samples(self, points, max_gap):
        from repro.core.model import Location, Trajectory
        from repro.core.preprocess import split_by_time_gap

        stream = Trajectory(
            0,
            tuple(
                Location(0, x, y, i * 20.0) for i, (x, y) in enumerate(points)
            ),
        )
        trips = split_by_time_gap(stream, max_gap)
        total = sum(len(trip) for trip in trips)
        assert total <= len(stream)
        # Each trip's samples are a contiguous, ordered slice of the input.
        for trip in trips:
            times = [l.t for l in trip.locations]
            assert times == sorted(times)
            for a, b in zip(times, times[1:]):
                assert b - a <= max_gap

    @given(time_series, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50)
    def test_simplify_preserves_endpoints_and_shrinks(self, points, epsilon):
        from repro.core.model import Location, Trajectory
        from repro.core.preprocess import simplify

        stream = Trajectory(
            0,
            tuple(
                Location(0, x, y, float(i)) for i, (x, y) in enumerate(points)
            ),
        )
        simplified = simplify(stream, epsilon)
        assert len(simplified) <= len(stream)
        assert simplified.start == stream.start
        assert simplified.end == stream.end

    @given(time_series)
    @settings(max_examples=30)
    def test_deduplicate_idempotent(self, points):
        from repro.core.model import Location, Trajectory
        from repro.core.preprocess import deduplicate

        stream = Trajectory(
            0,
            tuple(
                Location(0, x, y, float(i)) for i, (x, y) in enumerate(points)
            ),
        )
        once = deduplicate(stream)
        twice = deduplicate(once)
        assert once == twice


class TestTimesliceProperties:
    @given(workloads(), st.floats(min_value=30.0, max_value=600.0))
    @settings(max_examples=10, deadline=None)
    def test_slices_partition_trajectories(self, workload, window):
        from repro.core.timeslice import time_sliced_clustering

        network, dataset = workload
        slices = time_sliced_clustering(
            network, list(dataset), window, config=NEATConfig(min_card=0)
        )
        assert sum(s.trajectory_count for s in slices) == len(dataset)
        for timeslice in slices:
            # Window width up to float addition error.
            assert timeslice.end - timeslice.start == pytest.approx(window)
