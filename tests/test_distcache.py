"""Persistent warm-start distance cache: roundtrip, staleness, restarts.

The cache is a pure accelerator keyed on the network's mutation version:
these tests pin the byte format, the invalidation rules (a stale cache
must never answer for a mutated network), when it is written (with each
checkpoint and after a recovery, never per batch), and the headline
restart property — a service recovered from a checkpoint with no
journal tail performs **zero** shortest-path computations when the
network is unchanged.
"""

from __future__ import annotations

import json
import math
import struct

import pytest

from repro.core import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.serialize import result_to_dict
from repro.distributed.service import NeatService
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.errors import CorruptSnapshot
from repro.persist import (
    DISTCACHE_FORMAT,
    DISTCACHE_VERSION,
    decode_distance_cache,
    encode_distance_cache,
    load_distance_cache,
    save_distance_cache,
)
from repro.resilience import FaultInjector, FaultPlan
from repro.roadnet import ShortestPathEngine
from repro.roadnet.geometry import Point

from conftest import trajectory_through
from test_csr import random_network, sample_pairs

CONFIG = NEATConfig(min_card=0, eps=500.0)


def warmed_engine(network, seed: int = 3, cutoff: float = 400.0):
    engine = ShortestPathEngine(network)
    for a, b in sample_pairs(network, seed, count=30):
        engine.distance(a, b, cutoff=cutoff)
    return engine


def raw_payload(network, exact, bounded, directed=False) -> bytes:
    """A distcache payload holding exactly the given ``(a, b, value)``
    records, with a header that counts them as the encoder would."""
    header = {
        "format": DISTCACHE_FORMAT, "version": DISTCACHE_VERSION,
        "network": network.name, "network_version": network.version,
        "directed": directed, "exact": len(exact), "bounded": len(bounded),
    }
    records = b"".join(struct.pack("<qqd", *record) for record in exact + bounded)
    return json.dumps(header, sort_keys=True).encode() + b"\n" + records


def make_batches(network, count, per_batch=3):
    batches, trid = [], 0
    for index in range(count):
        batch = []
        for _ in range(per_batch):
            batch.append(trajectory_through(
                network, trid, [trid % 2, (trid % 2) + 1], t0=float(index)
            ))
            trid += 1
        batches.append(batch)
    return batches


class TestEncoding:
    def test_roundtrip_and_determinism(self):
        network = random_network(3)
        engine = warmed_engine(network)
        payload = encode_distance_cache(engine)
        assert payload == encode_distance_cache(engine)  # byte-stable

        header, exact, bounded = decode_distance_cache(payload)
        want_exact, want_bounded = engine.export_cache()
        assert header["format"] == DISTCACHE_FORMAT
        assert header["version"] == DISTCACHE_VERSION
        assert header["network"] == network.name
        assert header["network_version"] == network.version
        assert header["directed"] is False
        assert exact == want_exact
        assert bounded == want_bounded

    def test_malformed_payloads_raise_corrupt(self):
        network = random_network(3)
        payload = encode_distance_cache(warmed_engine(network))
        for broken in (
            b"no header newline",
            b"{not json}\n",
            b'{"format": "something-else"}\n',
            json.dumps({
                "format": DISTCACHE_FORMAT, "version": 99,
                "exact": 0, "bounded": 0,
            }).encode() + b"\n",
            payload[:-8],  # truncated record section
        ):
            with pytest.raises(CorruptSnapshot):
                decode_distance_cache(broken)

    def test_inconsistent_records_raise_corrupt(self):
        network = random_network(3)
        good = [(0, 1, 5.0), (0, 2, math.inf)], [(1, 2, 300.0)]
        decode_distance_cache(raw_payload(network, *good))
        for exact, bounded in (
            # NaN exact, a duplicate key with two answers, an infinite
            # bound: three records the header counts as distinct entries.
            ([(0, 1, math.nan), (0, 2, -5.0), (0, 2, 7.0)], [(1, 2, math.inf)]),
            ([(0, 1, math.nan)], []),
            ([(0, 1, -5.0)], []),
            ([(0, 2, 5.0), (0, 2, 5.0)], []),
            ([(0, 2, 5.0), (0, 1, 5.0)], []),
            ([(2, 1, 5.0)], []),
            ([(1, 1, 0.0)], []),
            ([], [(1, 2, math.inf)]),
            ([], [(1, 2, 0.0)]),
            ([], [(1, 2, math.nan)]),
            ([(1, 2, 5.0)], [(1, 2, 300.0)]),
        ):
            with pytest.raises(CorruptSnapshot):
                decode_distance_cache(raw_payload(network, exact, bounded))

    def test_inconsistent_records_leave_the_engine_cold(self, tmp_path):
        from repro.persist.store import seal_snapshot

        network = random_network(3)
        path = tmp_path / "distcache.snap"
        path.write_bytes(seal_snapshot(raw_payload(
            network,
            [(0, 1, math.nan), (0, 2, -5.0), (0, 2, 7.0)],
            [(1, 2, math.inf)],
        )))
        registry = MetricsRegistry()
        engine = ShortestPathEngine(network)
        assert load_distance_cache(path, engine, metrics=registry) is None
        assert registry.value("sp.cache.invalidations") == 1.0
        assert engine.export_cache() == ({}, {})

    def test_unreachable_under_infinite_cutoff_is_exact(self):
        network = random_network(3)
        island = network.add_junction(Point(9e6, 9e6))
        engine = ShortestPathEngine(network)
        node = network.node_ids()[0]
        assert engine.distance(node, island, cutoff=math.inf) == math.inf
        exact, bounded = engine.export_cache()
        assert exact == {(node, island): math.inf} and bounded == {}
        _header, decoded, _ = decode_distance_cache(encode_distance_cache(engine))
        assert decoded == exact


class TestSaveLoad:
    def test_warm_engine_answers_without_searching(self, tmp_path):
        network = random_network(7)
        path = tmp_path / "distcache.snap"
        hot = warmed_engine(network, seed=7)
        queries = [
            (a, b) for a, b in sample_pairs(network, 7, count=30) if a != b
        ]
        expected = [hot.distance(a, b, cutoff=400.0) for a, b in queries]
        entries = save_distance_cache(path, hot, fsync=False)
        assert entries > 0

        cold = ShortestPathEngine(network)
        absorbed = load_distance_cache(path, cold)
        assert absorbed == entries
        got = [cold.distance(a, b, cutoff=400.0) for a, b in queries]
        assert got == expected
        assert cold.computations == 0  # the restart property, engine-level
        assert cold.warm_hits > 0
        assert cold.warm_hits == cold.cache_hits

    def test_metrics_account_saves_and_loads(self, tmp_path):
        network = random_network(7)
        path = tmp_path / "distcache.snap"
        registry = MetricsRegistry()
        entries = save_distance_cache(
            path, warmed_engine(network, seed=7), fsync=False, metrics=registry
        )
        load_distance_cache(path, ShortestPathEngine(network), metrics=registry)
        assert registry.value("sp.cache.saves") == 1.0
        assert registry.value("sp.cache.saved_entries") == float(entries)
        assert registry.value("sp.cache.loads") == 1.0
        assert registry.value("sp.cache.loaded_entries") == float(entries)

    def test_missing_file_is_a_counted_miss(self, tmp_path):
        registry = MetricsRegistry()
        engine = ShortestPathEngine(random_network(7))
        assert load_distance_cache(
            tmp_path / "absent.snap", engine, metrics=registry
        ) is None
        assert registry.value("sp.cache.misses") == 1.0

    def test_corrupt_file_is_ignored_never_fatal(self, tmp_path):
        path = tmp_path / "distcache.snap"
        path.write_bytes(b"garbage that is certainly not a sealed snapshot")
        registry = MetricsRegistry()
        engine = ShortestPathEngine(random_network(7))
        assert load_distance_cache(path, engine, metrics=registry) is None
        assert registry.value("sp.cache.invalidations") == 1.0
        assert engine.export_cache() == ({}, {})


class TestStaleness:
    """Satellite regression: a CSR mutation-version bump kills the cache."""

    def test_network_mutation_invalidates(self, tmp_path):
        network = random_network(11)
        path = tmp_path / "distcache.snap"
        save_distance_cache(path, warmed_engine(network, seed=11), fsync=False)

        network.add_junction(Point(9999.0, 9999.0))  # bumps network.version
        registry = MetricsRegistry()
        cold = ShortestPathEngine(network)
        assert load_distance_cache(path, cold, metrics=registry) is None
        assert registry.value("sp.cache.invalidations") == 1.0
        assert cold.export_cache() == ({}, {})  # engine stays cold

    def test_different_network_name_invalidates(self, tmp_path):
        path = tmp_path / "distcache.snap"
        save_distance_cache(
            path, warmed_engine(random_network(11), seed=11), fsync=False
        )
        other = random_network(12)  # same shape family, different name
        assert load_distance_cache(path, ShortestPathEngine(other)) is None

    def test_direction_mode_mismatch_invalidates(self, tmp_path):
        network = random_network(11)
        path = tmp_path / "distcache.snap"
        save_distance_cache(path, warmed_engine(network, seed=11), fsync=False)
        directed = ShortestPathEngine(network, directed=True)
        assert load_distance_cache(path, directed) is None


class TestIncrementalIntegration:
    """The cache is saved with each checkpoint and recovery, not per batch."""

    def test_checkpoint_saves_and_recover_warm_starts(self, grid3x3, tmp_path):
        batches = make_batches(grid3x3, 3)
        clusterer = IncrementalNEAT(grid3x3, CONFIG)
        clusterer.enable_persistence(tmp_path, fsync=False)
        for batch in batches:
            clusterer.add_batch(batch)
        assert clusterer.distcache_path is not None
        assert not clusterer.distcache_path.exists()
        clusterer.checkpoint()
        assert clusterer.distcache_path.exists()
        assert clusterer.engine.computations > 0
        reference = json.dumps(
            result_to_dict(clusterer.snapshot_result(), "warm"), sort_keys=True
        )

        recovered = IncrementalNEAT.recover(tmp_path, grid3x3, CONFIG)
        document = json.dumps(
            result_to_dict(recovered.snapshot_result(), "warm"), sort_keys=True
        )
        assert document == reference
        # The acceptance property: rebuilding the checkpoint's Phase 3
        # over an unchanged network ran without one shortest-path search.
        assert recovered.engine.computations == 0
        assert recovered.engine.warm_hits > 0

    def test_batch_without_checkpoint_leaves_cache_untouched(
        self, grid3x3, tmp_path
    ):
        clusterer = IncrementalNEAT(grid3x3, CONFIG)
        clusterer.enable_persistence(tmp_path, checkpoint_every=0, fsync=False)
        for batch in make_batches(grid3x3, 2):
            clusterer.add_batch(batch)
        clusterer.checkpoint()
        path = clusterer.distcache_path
        saved, inode = path.read_bytes(), path.stat().st_ino
        memo = clusterer.engine.export_cache()
        clusterer.add_batch([
            trajectory_through(grid3x3, 100 + i, [10, 11], t0=5.0)
            for i in range(3)
        ])
        assert clusterer.engine.export_cache() != memo  # the batch searched
        assert (path.read_bytes(), path.stat().st_ino) == (saved, inode)

    def test_recovery_saves_what_replay_searched(self, grid3x3, tmp_path):
        # No checkpoint ever ran (the default cadence), as after a crash:
        # the first recovery replays the journal cold and saves what it
        # searched, so the next recovery replays it warm.
        clusterer = IncrementalNEAT(grid3x3, CONFIG)
        clusterer.enable_persistence(tmp_path, checkpoint_every=0, fsync=False)
        for batch in make_batches(grid3x3, 3):
            clusterer.add_batch(batch)
        assert not clusterer.distcache_path.exists()
        del clusterer

        first = IncrementalNEAT.recover(tmp_path, grid3x3, CONFIG, fsync=False)
        assert first.engine.computations > 0
        assert first.distcache_path.exists()
        second = IncrementalNEAT.recover(tmp_path, grid3x3, CONFIG, fsync=False)
        assert second.engine.computations == 0
        assert second.engine.warm_hits > 0

    def test_save_failure_is_best_effort(self, grid3x3, tmp_path):
        faults = FaultInjector()
        telemetry = Telemetry.create()
        clusterer = IncrementalNEAT(grid3x3, CONFIG, telemetry=telemetry)
        clusterer.enable_persistence(tmp_path, fsync=False, faults=faults)
        faults.arm("distcache.pre_rename", FaultPlan(fail_nth=1))
        for batch in make_batches(grid3x3, 2):
            clusterer.add_batch(batch)
        generation = clusterer.checkpoint()
        # The checkpoint itself was written; only its cache save failed.
        assert clusterer._persist.snapshots.generations()[-1].number == generation
        assert telemetry.metrics.value("sp.cache.save_failures") == 1.0
        assert not clusterer.distcache_path.exists()

    def test_unchanged_cache_is_not_rewritten(self, grid3x3, tmp_path):
        telemetry = Telemetry.create()
        clusterer = IncrementalNEAT(grid3x3, CONFIG, telemetry=telemetry)
        clusterer.enable_persistence(tmp_path, fsync=False)
        for batch in make_batches(grid3x3, 2):
            clusterer.add_batch(batch)
        clusterer.checkpoint()
        inode = clusterer.distcache_path.stat().st_ino
        clusterer.checkpoint()  # nothing searched since the first
        assert telemetry.metrics.value("sp.cache.saves") == 1.0
        assert clusterer.distcache_path.stat().st_ino == inode


class TestServiceRestart:
    """Acceptance: a service restarted from a checkpoint with no journal
    tail performs zero distance searches."""

    def test_restart_with_unchanged_network_is_all_warm(self, grid3x3, tmp_path):
        batches = make_batches(grid3x3, 3)
        service = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        for batch in batches:
            service.submit(batch)
        service.checkpoint()
        before = service.stats()
        assert before.shortest_path_computations > 0
        document = service.get_clustering()
        del service

        reborn = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        after = reborn.stats()
        assert after.flow_count == before.flow_count
        assert after.cluster_count == before.cluster_count
        # Counter snapshot: recovery rebuilt Phase 3 entirely from the
        # distance cache saved with the checkpoint.
        assert after.shortest_path_computations == 0
        assert after.warm_distance_hits > 0
        restored = reborn.get_clustering()
        for key in ("flows", "clusters", "base_clusters"):
            assert restored[key] == document[key]

    def test_restart_after_mutation_recomputes(self, grid3x3, tmp_path):
        service = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        for batch in make_batches(grid3x3, 2):
            service.submit(batch)
        service.checkpoint()  # saves the distance cache
        assert service._incremental.distcache_path.exists()
        del service

        grid3x3.add_junction(Point(9999.0, 9999.0))
        reborn = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        stats = reborn.stats()
        # The stale cache was discarded, so replay searched from scratch
        # — slower, but never a wrong distance.
        assert stats.shortest_path_computations > 0
        assert stats.warm_distance_hits == 0
