"""A process-wide region with CPython's cyclic garbage collector paused.

NEAT's bulk-allocation paths build hundreds of thousands of
:class:`~repro.core.model.Location` samples in tight loops: Phase 1
fragmentation, the clustering document build, and the wire and document
decoders.  ``Location`` is a ``NamedTuple``, a tuple *subclass*, and
CPython untracks only exact tuples of atomic values, so every sample
stays a GC-tracked object for as long as it lives.  The generational
collector triggers every ~700 net allocations and rescans the young and
(eventually) the whole tracked heap, which measured at up to three
quarters of a document build's wall time.  None of those objects can
form a reference cycle: samples hold only numbers and ``None``, and the
fragments, clusters, lists and dicts built around them reference
downwards only.  Collection is therefore deferred until the region ends,
where the one young collection that came due runs before the region's
caller continues; ``gc.collect()`` after a region finds nothing to free.

:data:`gc_paused` is both a context manager and a decorator::

    @gc_paused
    def form_base_clusters(...): ...

    with gc_paused:
        ...

The garbage collector is process-wide state, so the region is too.  It
is counted and lock-protected: regions nest, and regions opened by
several threads (a service's HTTP threads) overlap correctly — the
collector stays paused while *any* region is open in *any* thread and
resumes when the last one closes.  Whether it resumes is decided by the
state the first region found: a collector the embedding application
disabled itself stays disabled.  A child forked inside a region (a
worker-pool start) begins outside every region, with the collector as
the parent had it before the first region opened.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading

__all__ = ["gc_paused"]


class _PausedRegion(contextlib.ContextDecorator):
    """Counted, lock-protected ``gc.disable()`` / ``gc.enable()`` pair."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> "_PausedRegion":
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            resumed = self._depth == 0 and self._resume
            if resumed:
                gc.enable()
        if resumed:
            # Run the young collection the region deferred now, outside
            # the lock: its cost (one pass over what the region allocated)
            # belongs to the region's caller, not to whichever allocation
            # would trip the threshold next.
            threshold = gc.get_threshold()[0]
            if threshold and gc.get_count()[0] > threshold:
                gc.collect(0)

    def _after_fork_in_child(self) -> None:
        # The forking thread may not be the one holding the lock, and the
        # regions open in the parent do not exist in the child.
        self._lock = threading.Lock()
        depth, self._depth = self._depth, 0
        if depth and self._resume:
            gc.enable()


#: The one GC-paused region of the process.
gc_paused = _PausedRegion()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=gc_paused._after_fork_in_child)
