"""Worker resolution and process-parallel pipeline determinism.

The contract under test: any ``workers`` setting produces byte-identical
pipeline output (cluster membership, representative routes, telemetry
counters) to a serial run — parallelism may only change wall-clock time.
"""

from __future__ import annotations

import pytest

import repro.roadnet.shortest_path as sp_module
from repro.core import NEAT, NEATConfig
from repro.errors import ConfigError
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.parallel import effective_workers, pool_counters, resolve_workers
from repro.roadnet import GridConfig, generate_grid_network

from conftest import dijkstra_reference_engine


class TestWorkerResolution:
    def test_auto_modes(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_effective_workers_degrades_for_small_batches(self):
        assert effective_workers(8, 10, min_items_per_worker=32) == 1
        assert effective_workers(8, 64, min_items_per_worker=32) == 2
        assert effective_workers(2, 10_000, min_items_per_worker=32) == 2
        assert effective_workers(1, 10_000) == 1

    def test_config_validates_workers(self):
        assert NEATConfig(workers=None).workers is None
        assert NEATConfig(workers=4).workers == 4
        with pytest.raises(ConfigError):
            NEATConfig(workers=-2)


@pytest.fixture(scope="module")
def workload():
    network = generate_grid_network(GridConfig(rows=12, cols=12, seed=5))
    dataset = simulate_dataset(
        network,
        SimulationConfig(object_count=80, seed=9, name="parallel-agreement"),
    )
    return network, dataset


def _cluster_key(result):
    """Order-insensitive identity of final clusters and their routes."""
    return sorted(
        sorted((flow.endpoints, flow.route_length, tuple(sorted(flow.participants)))
               for flow in cluster.flows)
        for cluster in result.clusters
    )


def _pooled_batches() -> int:
    return pool_counters()["pool.batches"]


class TestPipelineAgreement:
    """Acceptance: identical output across worker counts and against the
    plain-Dijkstra reference.

    This input plans too few grouped searches to clear the production
    per-worker floor, so the floor is forced to 1 and every pooled run
    must show a pool batch: the comparison cannot quietly go serial."""

    @pytest.fixture(autouse=True)
    def _reach_the_pool(self, monkeypatch):
        monkeypatch.setattr(sp_module, "MIN_GROUPS_PER_WORKER", 1)

    def test_workers_and_backends_agree(self, workload):
        network, dataset = workload
        runs = {}
        for label, workers, engine in (
            ("serial", 1, None),
            ("parallel", 4, None),
            ("reference", 1, dijkstra_reference_engine(network)),
        ):
            batches = _pooled_batches()
            neat = NEAT(network, NEATConfig(eps=1500.0, workers=workers), engine=engine)
            runs[label] = (neat.run_opt(dataset), neat.engine)
            assert (_pooled_batches() - batches >= 1) == (workers > 1), label
        keys = {label: _cluster_key(result) for label, (result, _) in runs.items()}
        assert keys["serial"] == keys["parallel"] == keys["reference"]

        # Figure-7 accounting is exact: parallel prefetching must not
        # change what the engine reports having done.
        (serial, serial_engine), (parallel, parallel_engine) = (
            runs["serial"], runs["parallel"]
        )
        assert serial_engine.computations == parallel_engine.computations
        assert serial_engine.cache_hits == parallel_engine.cache_hits
        assert serial_engine.nodes_expanded == parallel_engine.nodes_expanded
        assert serial.refinement_stats == parallel.refinement_stats
        # The prune tiers see the same pairs whichever engine answers.
        reference = runs["reference"][0].refinement_stats
        assert reference.pair_checks == serial.refinement_stats.pair_checks
        assert reference.elb_pruned == serial.refinement_stats.elb_pruned

    def test_elb_disabled_agreement(self, workload):
        network, dataset = workload
        outs = []
        for workers in (1, 4):
            batches = _pooled_batches()
            neat = NEAT(
                network,
                NEATConfig(eps=1200.0, workers=workers, use_elb=False),
            )
            outs.append(_cluster_key(neat.run_opt(dataset)))
            assert (_pooled_batches() - batches >= 1) == (workers > 1)
        assert outs[0] == outs[1]
