"""Worker-pool helpers and process-parallel pipeline determinism.

The contract under test: any ``workers`` setting produces byte-identical
pipeline output (cluster membership, representative routes, telemetry
counters) to a serial run — parallelism may only change wall-clock time.
"""

from __future__ import annotations

import pytest

import repro.core.fragmentation as fragmentation_module
import repro.roadnet.shortest_path as sp_module
from repro.core import NEAT, NEATConfig
from repro.core.base_cluster import form_base_clusters
from repro.core.fragmentation import fragment_all
from repro.errors import ConfigError
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.parallel import (
    effective_workers,
    map_chunked,
    resolve_workers,
    split_chunks,
)
from repro.roadnet import GridConfig, generate_grid_network, many_to_many_distances

from conftest import dijkstra_reference_engine


def _double_chunk(chunk):
    """Module-level chunk fn so the process pool can pickle it."""
    return [2 * x for x in chunk]


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

    def test_config_validates_backend(self):
        for field, removed in (("sp_backend", "dict"), ("sp_oracle", "pairwise")):
            with pytest.raises(ConfigError, match="removed"):
                NEATConfig(**{field: removed})
            with pytest.raises(ConfigError, match="removed"):
                NEATConfig.from_dict({field: removed})
        with pytest.raises(ConfigError):
            NEATConfig(sp_backend="quantum")
        # The surviving values still load, as committed configs pin them.
        assert NEATConfig.from_dict({"sp_backend": "csr", "sp_oracle": "tiered"})


class TestChunking:
    def test_split_chunks_partition(self):
        items = list(range(23))
        chunks = split_chunks(items, 5)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) == 5
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_split_chunks_never_empty(self):
        assert split_chunks([1, 2], 8) == [[1], [2]]
        assert split_chunks([], 3) == [[]]

    def test_map_chunked_serial_equals_parallel(self):
        items = list(range(101))
        serial = map_chunked(_double_chunk, items, workers=1)
        parallel = map_chunked(
            _double_chunk, items, workers=3, min_items_per_worker=1
        )
        assert serial == parallel == [2 * x for x in items]

    def test_map_chunked_empty(self):
        assert map_chunked(_double_chunk, [], workers=4) == []


@pytest.fixture(scope="module")
def workload():
    network = generate_grid_network(GridConfig(rows=12, cols=12, seed=5))
    dataset = simulate_dataset(
        network,
        SimulationConfig(object_count=80, seed=9, name="parallel-agreement"),
    )
    return network, dataset


def _force_small_thresholds(monkeypatch):
    """Let tiny test workloads actually reach the process pool."""
    monkeypatch.setattr(fragmentation_module, "MIN_TRAJECTORIES_PER_WORKER", 1)
    monkeypatch.setattr(sp_module, "MIN_PAIRS_PER_WORKER", 1)


def _cluster_key(result):
    """Order-insensitive identity of final clusters and their routes."""
    return sorted(
        sorted((flow.endpoints, flow.route_length, tuple(sorted(flow.participants)))
               for flow in cluster.flows)
        for cluster in result.clusters
    )


class TestPhase1Parallel:
    def test_fragments_identical(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        trajectories = list(dataset.trajectories)
        serial = fragment_all(network, trajectories, workers=1)
        fanned = fragment_all(network, trajectories, workers=4)
        assert serial == fanned

    def test_base_clusters_identical(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        trajectories = list(dataset.trajectories)
        serial = form_base_clusters(network, trajectories, workers=1)
        fanned = form_base_clusters(network, trajectories, workers=4)
        assert [(c.sid, c.fragments) for c in serial] == [
            (c.sid, c.fragments) for c in fanned
        ]


class TestPipelineAgreement:
    """Acceptance: identical output across worker counts and against the
    plain-Dijkstra reference."""

    def test_workers_and_backends_agree(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        runs = {}
        for label, workers, engine in (
            ("serial", 1, None),
            ("parallel", 4, None),
            ("reference", 1, dijkstra_reference_engine(network)),
        ):
            neat = NEAT(network, NEATConfig(eps=1500.0, workers=workers), engine=engine)
            runs[label] = (neat.run_opt(dataset), neat.engine)
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

    def test_elb_disabled_agreement(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        outs = []
        for workers in (1, 4):
            neat = NEAT(
                network,
                NEATConfig(eps=1200.0, workers=workers, use_elb=False),
            )
            outs.append(_cluster_key(neat.run_opt(dataset)))
        assert outs[0] == outs[1]


class TestManyToManyParallel:
    def test_matches_serial(self, workload):
        network, _ = workload
        ids = network.node_ids()
        sources = ids[::9]
        targets = ids[::7]
        serial = many_to_many_distances(network, sources, targets, workers=1)
        fanned = many_to_many_distances(network, sources, targets, workers=3)
        assert serial == fanned
