"""Zero-copy process-parallel compute core.

The pool executor of Phase 3: the planned grouped shortest-path
searches (``ShortestPathEngine.search_groups``) run against a read-only
CSR snapshot of the road network.  Everything else runs
inline; Phase 1 in particular was slower through the pool than serial,
because shipping its inputs and results cost more than fragmenting
them.  Three design rules keep the remaining fan-out cheap:

* **Persistent pool** — one :class:`WorkerPool` per process lifetime
  (module singleton via :func:`get_pool`), started on first parallel
  batch and reused across batches and pipeline runs.  Pool reuse,
  restarts and bytes shipped are tracked in the ``pool.*`` counters
  (:func:`pool_counters`).
* **A shared CSR snapshot instead of per-task pickles** — the network's
  CSR snapshot is registered once per network version, published to
  :mod:`multiprocessing.shared_memory` and attached zero-copy by every
  worker in its initializer
  (:class:`~repro.roadnet.sharedcsr.SharedCSR`).  Tasks then carry only
  a resource *key*.
* **(offset, length) descriptors for flat batches** — the array-native
  batch payload goes into one transient shared segment per batch; each
  task ships just its span into that segment (:func:`map_flat`).

The determinism contract: items are split into contiguous,
order-preserving spans and results concatenate in submission order, so
output is byte-identical to a serial run at any worker count.  Serial
fallback (``workers <= 1`` or too few items) runs inline with no pool
and no shared segments; a pool whose workers die mid-batch is restarted
and the batch retried once, then the batch falls back to inline serial
execution (``pool.crash_recoveries`` / ``pool.serial_fallbacks``).

Span functions must be picklable (module-level functions or
``functools.partial`` over one), as must their results.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, NamedTuple, Sequence

#: Default floor of items per worker before a pool is worth using.
DEFAULT_MIN_ITEMS_PER_WORKER = 32

#: Counters describing the pool's whole-process behaviour, exported to
#: the metrics registry as ``pool.*`` deltas by the pipeline.
POOL_COUNTER_NAMES = (
    "pool.starts",
    "pool.restarts",
    "pool.batches",
    "pool.reuses",
    "pool.tasks",
    "pool.bytes_shipped",
    "pool.shm_segments",
    "pool.shm_bytes",
    "pool.crash_recoveries",
    "pool.serial_fallbacks",
)

_counter_lock = threading.Lock()
_counters: dict[str, int] = {name: 0 for name in POOL_COUNTER_NAMES}


def _bump(name: str, amount: int = 1) -> None:
    with _counter_lock:
        _counters[name] += amount


def pool_counters() -> dict[str, int]:
    """A point-in-time copy of the ``pool.*`` counters."""
    with _counter_lock:
        return dict(_counters)


# ----------------------------------------------------------------------
# Worker resolution
# ----------------------------------------------------------------------
def available_cpus() -> int:
    """CPUs this process may actually run on.

    Containers and CI runners routinely pin processes to a subset of the
    machine; :func:`os.cpu_count` reports the machine and over-subscribes.
    Prefers :func:`os.process_cpu_count` (3.13+), then the scheduling
    affinity mask, then the raw count.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        count = getter()
        if count:
            return count
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Turn a ``workers`` setting into a concrete count.

    ``None`` and ``0`` mean "auto": one per *available* CPU
    (:func:`available_cpus`, affinity-aware).  Positive ints pass
    through; negative counts are rejected.
    """
    if workers is None or workers == 0:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers


def effective_workers(
    workers: int | None,
    item_count: int,
    min_items_per_worker: int = DEFAULT_MIN_ITEMS_PER_WORKER,
) -> int:
    """Workers actually worth using for ``item_count`` items.

    Resolves ``workers`` (:func:`resolve_workers`), then degrades to 1
    when the batch is too small for the fan-out to pay for itself, and
    caps the count so every worker gets at least ``min_items_per_worker``
    items.
    """
    resolved = resolve_workers(workers)
    if resolved <= 1 or item_count < 2 * max(1, min_items_per_worker):
        return 1
    return max(1, min(resolved, item_count // max(1, min_items_per_worker)))


def split_spans(item_count: int, span_count: int) -> list[tuple[int, int]]:
    """Split ``range(item_count)`` into ``(first_item, length)`` spans.

    Contiguous, near-even (the first ``item_count % span_count`` spans
    get one extra item), covering the range exactly, at most
    ``item_count`` spans, and a pure function of its arguments: the
    pool's and the shards' group spans are cut here, so two identical
    runs send identical spans.
    """
    count = max(1, min(span_count, item_count))
    base, extra = divmod(item_count, count)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        spans.append((start, size))
        start += size
    return spans if spans else [(0, 0)]


# ----------------------------------------------------------------------
# Shared resources
# ----------------------------------------------------------------------
class Resource(NamedTuple):
    """A CSR snapshot workers attach once, not per task.

    Attributes:
        ident: Stable identity *excluding* version — ``("csr", network
            name, id(network), directed)``.  Registering a new version
            under the same ident evicts the old one.
        version: Mutation version of the network.
        value: The parent-side :class:`~repro.roadnet.csr.CSRGraph`
            (also the serial-path value).
    """

    ident: tuple
    version: int
    value: object

    @property
    def key(self) -> tuple:
        return (*self.ident, self.version)


def csr_resource(network, directed: bool) -> Resource:
    """The shared-memory resource for a network's CSR snapshot."""
    return Resource(
        ("csr", network.name, id(network), directed),
        network.version,
        network.csr(directed),
    )


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
# Populated by _worker_init from the bootstrap specs; maps resource key
# to the attached CSRGraph.
_WORKER_RESOURCES: dict = {}
# Attached handles (SharedCSR) kept so atexit can release them cleanly.
_WORKER_HANDLES: list = []
# name -> (SharedMemory, typed memoryview) cache of transient batch
# segments, bounded so long-lived workers do not accumulate mappings.
_WORKER_BATCHES: dict = {}
_WORKER_BATCH_LIMIT = 4


def _release_worker_state() -> None:  # pragma: no cover - worker teardown
    for _name, (shm, view) in list(_WORKER_BATCHES.items()):
        view.release()
        shm.close()
    _WORKER_BATCHES.clear()
    for handle in _WORKER_HANDLES:
        handle.close()
    _WORKER_HANDLES.clear()
    _WORKER_RESOURCES.clear()


def _worker_init(specs: list[tuple[tuple, str]]) -> None:
    """Attach every registered CSR snapshot inside a fresh worker."""
    from .roadnet.sharedcsr import SharedCSR

    _release_worker_state()
    for key, name in specs:
        handle = SharedCSR.attach(name)
        _WORKER_HANDLES.append(handle)
        _WORKER_RESOURCES[key] = handle.graph
    atexit.register(_release_worker_state)


def _attach_batch(name: str, typecode: str) -> memoryview:
    """Attach (and cache) a transient flat-batch segment in a worker."""
    cached = _WORKER_BATCHES.get(name)
    if cached is not None:
        return cached[1]
    from .roadnet.sharedcsr import _attach_segment

    while len(_WORKER_BATCHES) >= _WORKER_BATCH_LIMIT:
        old_name = next(iter(_WORKER_BATCHES))
        old_shm, old_view = _WORKER_BATCHES.pop(old_name)
        old_view.release()
        old_shm.close()
    shm = _attach_segment(name)
    view = shm.buf.cast(typecode)
    _WORKER_BATCHES[name] = (shm, view)
    return view


def _run_task(payload: bytes):
    """Execute one pre-pickled task inside a worker.

    The payload is pickled in the parent (so ``pool.bytes_shipped`` is
    exact) and decodes to::

        (fn, resource_key, segment_name, typecode, lo, hi)

    ``fn`` receives the attached CSR snapshot, the whole typed view of
    the batch segment and its ``[lo, hi)`` element range.
    """
    fn, key, name, typecode, lo, hi = pickle.loads(payload)
    return fn(_WORKER_RESOURCES[key], _attach_batch(name, typecode), lo, hi)


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A resumable, resource-aware :class:`ProcessPoolExecutor` wrapper.

    Workers are started lazily on the first batch and reused for every
    later one.  Registered CSR snapshots are attached in the worker
    *initializer*, so steady-state tasks carry only span descriptors.
    Registering a genuinely new snapshot after startup restarts the
    workers once (``pool.restarts``); re-registering a known one is
    free.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, max_workers)
        self._executor: ProcessPoolExecutor | None = None
        self._resources: dict[tuple, Resource] = {}
        self._published: dict[tuple, object] = {}  # key -> SharedCSR owner
        self._lock = threading.RLock()
        self._batch_serial = 0

    # -- resources -----------------------------------------------------
    def ensure_resource(self, resource: Resource) -> tuple:
        """Register (or reuse) a resource; returns its worker-side key."""
        with self._lock:
            key = resource.key
            if key in self._resources:
                return key
            # Evict any stale version living under the same identity.
            for old_key in [
                k for k, r in self._resources.items()
                if r.ident == resource.ident
            ]:
                self._drop_resource(old_key)
            from .roadnet.sharedcsr import SharedCSR

            handle = SharedCSR.publish(resource.value)
            self._published[key] = handle
            _bump("pool.shm_segments")
            _bump("pool.shm_bytes", handle.nbytes)
            self._resources[key] = resource
            if self._executor is not None:
                # Live workers lack the new resource: restart so their
                # initializer picks it up.
                self._restart()
            return key

    def _drop_resource(self, key: tuple) -> None:
        del self._resources[key]
        self._published.pop(key).unlink()

    def resource_value(self, key: tuple):
        """Parent-side value of a registered resource (serial fallback)."""
        with self._lock:
            return self._resources[key].value

    def _specs(self) -> list[tuple[tuple, str]]:
        return [(key, handle.name) for key, handle in self._published.items()]

    # -- lifecycle -----------------------------------------------------
    def _ensure_executor(self, counter: str = "pool.starts") -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_worker_init,
                initargs=(self._specs(),),
            )
            _bump(counter)
        return self._executor

    def _restart(self) -> None:
        """Replace live workers; counts as a restart, not a cold start."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._ensure_executor("pool.restarts")

    def grow(self, max_workers: int) -> None:
        """Raise the worker count (restarts live workers if needed)."""
        with self._lock:
            if max_workers <= self.max_workers:
                return
            self.max_workers = max_workers
            if self._executor is not None:
                self._restart()

    def shutdown(self) -> None:
        """Stop workers and unlink every owned shared segment (idempotent)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
            for key in list(self._resources):
                self._drop_resource(key)

    # -- batches -------------------------------------------------------
    def run_batch(self, payloads: list[bytes]) -> list:
        """Run pre-pickled tasks, in order, with crash recovery.

        A :class:`BrokenProcessPool` (a worker died mid-batch) restarts
        the pool and retries the whole batch once
        (``pool.crash_recoveries``); a second failure falls back to
        executing the tasks inline in this process
        (``pool.serial_fallbacks``) — resource keys resolve against the
        parent-side values, so the fallback needs no worker state.
        """
        with self._lock:
            executor = self._ensure_executor()
            if self._batch_serial > 0:
                _bump("pool.reuses")
            self._batch_serial += 1
        _bump("pool.batches")
        _bump("pool.tasks", len(payloads))
        _bump("pool.bytes_shipped", sum(len(p) for p in payloads))
        for attempt in (0, 1):
            try:
                futures = [executor.submit(_run_task, p) for p in payloads]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                _bump("pool.crash_recoveries")
                with self._lock:
                    self._restart()
                    executor = self._executor
        _bump("pool.serial_fallbacks")
        return [self._run_inline(p) for p in payloads]

    def _run_inline(self, payload: bytes):
        """Serial fallback: execute one task payload in the parent."""
        fn, key, name, typecode, lo, hi = pickle.loads(payload)
        from .roadnet.sharedcsr import _attach_segment

        shm = _attach_segment(name)
        try:
            view = shm.buf.cast(typecode)
            try:
                return fn(self.resource_value(key), view, lo, hi)
            finally:
                view.release()
        finally:
            shm.close()


_pool: WorkerPool | None = None
_pool_lock = threading.Lock()


def get_pool(workers: int | None = None) -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    ``workers`` raises the pool size when it exceeds the current one;
    the pool never shrinks — per-batch span counts already bound how
    many workers a small batch occupies.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = WorkerPool(resolve_workers(workers))
            atexit.register(shutdown_pool)
        elif workers is not None:
            _pool.grow(resolve_workers(workers))
        return _pool


def shutdown_pool() -> None:
    """Shut the process-wide pool down and reclaim its shared segments."""
    global _pool
    with _pool_lock:
        pool = _pool
        _pool = None
    if pool is not None:
        pool.shutdown()


# ----------------------------------------------------------------------
# The fan-out entry point
# ----------------------------------------------------------------------
def map_flat(
    fn: Callable,
    resource: Resource,
    typecode: str,
    flat,
    boundaries: Sequence[int],
    workers: int | None = None,
    min_items_per_worker: int = DEFAULT_MIN_ITEMS_PER_WORKER,
) -> list:
    """Fan a *flat-encoded* batch out by (offset, length) descriptors.

    ``flat`` is one typed :class:`array.array` encoding every item
    back-to-back; ``boundaries[i]`` is the element offset where item
    ``i`` starts (``len(boundaries) == item_count + 1``, and the encoding
    must be self-delimiting so ``fn`` can walk its span).  In parallel
    mode the flat payload is copied once into a transient shared-memory
    segment and each task ships only ``(segment, lo, hi)`` — workers
    read the items straight out of shared pages.

    ``fn(graph, view, lo, hi)`` receives the CSR snapshot of
    ``resource``, a typed view of the whole batch, and its element
    range; it returns one result list for the span.  The serial
    path calls ``fn`` once over the full range on a local view — byte
    identical, no segment.
    """
    item_count = len(boundaries) - 1
    if item_count <= 0:
        return []
    if not isinstance(flat, array) or flat.typecode != typecode:
        flat = array(typecode, flat)
    count = effective_workers(workers, item_count, min_items_per_worker)
    if count <= 1:
        view = memoryview(flat)
        try:
            return list(fn(resource.value, view, boundaries[0], boundaries[-1]))
        finally:
            view.release()
    from multiprocessing import shared_memory

    pool = get_pool(resolve_workers(workers))
    key = pool.ensure_resource(resource)
    raw = flat.tobytes()
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(raw)))
    try:
        segment.buf[:len(raw)] = raw
        _bump("pool.shm_segments")
        _bump("pool.shm_bytes", segment.size)
        payloads = []
        for first, span in split_spans(item_count, count):
            lo = boundaries[first]
            hi = boundaries[first + span]
            payloads.append(pickle.dumps(
                (fn, key, segment.name, typecode, lo, hi),
                protocol=pickle.HIGHEST_PROTOCOL,
            ))
        parts = pool.run_batch(payloads)
        return [result for part in parts for result in part]
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
