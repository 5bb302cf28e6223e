"""WorkerPool lifecycle: reuse, resources, crashes, shutdown, no leaks.

The persistent pool replaces the old executor-per-call fan-out; these
tests pin the lifecycle guarantees the zero-copy core depends on:
workers are reused across batches, registering a new CSR snapshot
restarts them exactly once, a crashed batch recovers (retry, then
inline fallback) without wrong answers, shutdown is idempotent, and no
shared-memory segment outlives its owner.  Every batch goes through
:func:`~repro.parallel.map_flat` over a shared CSR snapshot, the pool's
one task shape.
"""

from __future__ import annotations

import os
import pickle
from array import array

import pytest

from repro.parallel import (
    WorkerPool,
    available_cpus,
    csr_resource,
    get_pool,
    map_flat,
    pool_counters,
    resolve_workers,
    shutdown_pool,
)
from repro.roadnet import GridConfig, generate_grid_network
from repro.roadnet.geometry import Point

_PARENT_PID = os.getpid()


def _pair_distance_kernel(graph, view, lo, hi):
    return [
        graph.bidirectional_distance_counted(view[i], view[i + 1])
        for i in range(lo, hi, 2)
    ]


def _crash_in_worker_kernel(graph, view, lo, hi):
    """Dies in any pool worker; computes normally in the parent.

    The pid guard matters: after two crashed attempts the pool falls
    back to inline execution in the parent, which must not be killed.
    """
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _pair_distance_kernel(graph, view, lo, hi)


def _grid(seed: int):
    return generate_grid_network(GridConfig(rows=5, cols=5, seed=seed))


def _pairs(network, count: int = 12) -> list[tuple[int, int]]:
    ids = network.node_ids()
    return [(ids[i % len(ids)], ids[-1 - i % len(ids)]) for i in range(count)]


def _expected(network, pairs) -> list[tuple[float, int]]:
    graph = network.csr(False)
    return [graph.bidirectional_distance_counted(a, b) for a, b in pairs]


def _fan(network, pairs, kernel=_pair_distance_kernel, workers: int = 2):
    """One pair batch over ``network``'s CSR snapshot through the pool."""
    return map_flat(
        kernel,
        csr_resource(network, directed=False),
        "q",
        array("q", [node for pair in pairs for node in pair]),
        range(0, 2 * len(pairs) + 1, 2),
        workers=workers,
        min_items_per_worker=1,
    )


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without a live global pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _delta(before: dict, name: str) -> int:
    return pool_counters()[name] - before[name]


class TestAffinityAwareResolution:
    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_auto_uses_affinity_not_machine_count(self):
        # On Linux the affinity mask is authoritative; auto must agree
        # with it even when os.cpu_count() reports more.
        try:
            affinity = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            pytest.skip("no sched_getaffinity on this platform")
        if hasattr(os, "process_cpu_count"):
            assert resolve_workers(None) == os.process_cpu_count()
        else:
            assert resolve_workers(None) == affinity


class TestPoolReuse:
    def test_batches_reuse_workers(self):
        network = _grid(1)
        pairs = _pairs(network, 20)
        before = pool_counters()
        first = _fan(network, pairs)
        second = _fan(network, pairs)
        assert first == second == _expected(network, pairs)
        assert _delta(before, "pool.starts") == 1
        assert _delta(before, "pool.batches") == 2
        assert _delta(before, "pool.reuses") == 1
        assert _delta(before, "pool.bytes_shipped") > 0

    def test_get_pool_is_singleton_and_grows(self):
        pool = get_pool(2)
        assert get_pool() is pool
        get_pool(3)
        assert pool.max_workers == 3
        get_pool(2)  # never shrinks
        assert pool.max_workers == 3


class TestResources:
    def test_new_resource_after_start_restarts_once(self):
        pool = get_pool(2)
        network = _grid(1)
        before = pool_counters()
        _fan(network, _pairs(network))
        assert _delta(before, "pool.starts") == 1
        assert _delta(before, "pool.restarts") == 0
        # The same snapshot again: already registered, no restart.
        _fan(network, _pairs(network))
        assert _delta(before, "pool.restarts") == 0
        other = _grid(2)
        late = csr_resource(other, directed=False)
        pool.ensure_resource(late)
        assert _delta(before, "pool.restarts") == 1
        assert _delta(before, "pool.starts") == 1  # not a second cold start
        assert pool.resource_value(late.key) is other.csr(False)
        # The restarted workers attach the late snapshot too.
        pairs = _pairs(other)
        assert _fan(other, pairs) == _expected(other, pairs)

    def test_growth_restart_is_not_a_cold_start(self):
        network = _grid(1)
        pairs = _pairs(network)
        get_pool(1)
        before = pool_counters()
        _fan(network, pairs, workers=2)
        get_pool(2)  # already at 2 workers: no restart
        assert _delta(before, "pool.starts") == 1
        assert _delta(before, "pool.restarts") == 0
        get_pool(3)  # grows the running pool
        assert _delta(before, "pool.starts") == 1
        assert _delta(before, "pool.restarts") == 1
        assert _fan(network, pairs, workers=3) == _expected(network, pairs)

    def test_new_version_evicts_stale_ident(self):
        from repro.roadnet.sharedcsr import SharedCSR

        network = _grid(3)
        pool = WorkerPool(2)
        try:
            v0 = csr_resource(network, directed=False)
            key0 = pool.ensure_resource(v0)
            name0 = pool._published[key0].name
            network.add_junction(Point(9999.0, 9999.0))  # bumps the version
            v1 = csr_resource(network, directed=False)
            key1 = pool.ensure_resource(v1)
            assert key0 != key1
            assert pool.resource_value(key1) is v1.value
            with pytest.raises(KeyError):
                pool.resource_value(key0)
            # The stale snapshot's segment is reclaimed on eviction.
            with pytest.raises(FileNotFoundError):
                SharedCSR.attach(name0)
        finally:
            pool.shutdown()


class TestSharedSegments:
    def test_csr_segment_unlinked_on_shutdown(self):
        from repro.roadnet.sharedcsr import SharedCSR

        network = _grid(1)
        pool = WorkerPool(2)
        resource = csr_resource(network, directed=False)
        key = pool.ensure_resource(resource)
        name = pool._published[key].name
        # Alive while registered...
        SharedCSR.attach(name).close()
        pool.shutdown()
        # ...gone after shutdown: the owner reclaimed it.
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(name)

    def test_map_flat_parity_and_batch_segment_cleanup(self, tmp_path):
        from multiprocessing import shared_memory

        network = generate_grid_network(GridConfig(rows=6, cols=6, seed=2))
        pairs = _pairs(network)
        serial = _fan(network, pairs, workers=1)
        before = pool_counters()
        fanned = _fan(network, pairs, workers=3)
        assert serial == fanned == _expected(network, pairs)
        assert _delta(before, "pool.shm_segments") >= 1
        shutdown_pool()
        # The transient batch segment and the published CSR are both
        # reclaimed; nothing of ours is left in /dev/shm.
        leaked = []
        for name in os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []:
            if name.startswith("psm_"):
                try:
                    segment = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                segment.close()
                leaked.append(name)
        assert leaked == []


class TestCrashRecovery:
    def test_crash_mid_batch_recovers_with_correct_results(self):
        network = _grid(1)
        pairs = _pairs(network, 8)
        before = pool_counters()
        out = _fan(network, pairs, kernel=_crash_in_worker_kernel)
        assert out == _expected(network, pairs)
        assert _delta(before, "pool.crash_recoveries") >= 1
        assert _delta(before, "pool.serial_fallbacks") == 1

    def test_pool_usable_after_crash(self):
        network = _grid(1)
        _fan(network, _pairs(network, 4), kernel=_crash_in_worker_kernel)
        pairs = _pairs(network, 10)
        assert _fan(network, pairs) == _expected(network, pairs)


class TestShutdown:
    def test_double_shutdown_is_safe(self):
        network = _grid(1)
        pool = get_pool(2)
        _fan(network, _pairs(network, 6))
        pool.shutdown()
        pool.shutdown()
        shutdown_pool()
        shutdown_pool()

    def test_pool_restarts_after_global_shutdown(self):
        network = _grid(1)
        first = get_pool(2)
        shutdown_pool()
        second = get_pool(2)
        assert second is not first
        pairs = _pairs(network, 6)
        assert _fan(network, pairs) == _expected(network, pairs)


class TestInlineFallbackPayloads:
    def test_run_inline_matches_worker_results(self):
        # The serial fallback decodes the same pre-pickled payloads the
        # workers would have.
        from multiprocessing import shared_memory

        network = _grid(4)
        pool = WorkerPool(2)
        try:
            key = pool.ensure_resource(csr_resource(network, directed=False))
            pairs = _pairs(network, 2)
            flat = array("q", [node for pair in pairs for node in pair])
            segment = shared_memory.SharedMemory(create=True, size=len(flat) * 8)
            try:
                segment.buf[:] = flat.tobytes()
                payload = pickle.dumps(
                    (_pair_distance_kernel, key, segment.name, "q", 0, 4),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                assert pool._run_inline(payload) == _expected(network, pairs)
            finally:
                segment.close()
                segment.unlink()
        finally:
            pool.shutdown()
