"""Zero-copy CSR snapshots over POSIX shared memory.

The process fan-out of Phase 3 used to pickle the whole
:class:`~repro.roadnet.csr.CSRGraph` into every worker on every batch —
the reason BENCH_sp_core recorded a parallel *slowdown*.  This module
publishes a snapshot's typed columns once into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, and lets
worker processes *attach* it read-only: the attach builds typed
``memoryview`` casts over the shared buffer and wraps them with
:meth:`CSRGraph.from_arrays`, so no graph bytes are copied or unpickled
per worker — the OS maps the same physical pages everywhere.

Segment layout (all slots 8-byte, little-or-native endian — segments are
same-machine only, never persisted):

====================  ==========  =========================================
slot                  typecode    length
====================  ==========  =========================================
header                ``q``       5: magic, version, directed, nodes, edges
``node_ids``          ``q``       nodes
``indptr``            ``q``       nodes + 1
``adj``               ``q``       edges
``sids``              ``q``       edges
``weights``           ``d``       edges
reverse columns       as above    only when directed (indptr/adj/sids/weights)
====================  ==========  =========================================

Lifecycle: the publisher owns the segment and must :meth:`SharedCSR.unlink`
it exactly once (``close`` releases this process's mapping only).
Attachers never unlink; on Python < 3.13 the attach explicitly
unregisters the segment from the ``multiprocessing`` resource tracker,
which would otherwise unlink it when the *worker* exits and then warn
about a leak (bpo-38119) — the owner, not the tracker, is responsible
for reclamation here.
"""

from __future__ import annotations

from array import array
from multiprocessing import resource_tracker, shared_memory

from .csr import CSRGraph

#: Sanity marker at offset 0 of every published segment.
MAGIC = 0x4353_5247  # "CSRG"
#: Bumped whenever the layout above changes.
LAYOUT_VERSION = 1

_HEADER_SLOTS = 5
_ITEM = 8  # bytes per slot, both 'q' and 'd'


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    Python 3.13+ supports ``track=False`` natively.  Earlier versions
    register every attach with the resource tracker (bpo-38119), which
    (a) unlinks the publisher's segment when the first *worker* exits
    and (b) double-unregisters names shared across forked workers; both
    are wrong here, so registration is suppressed for the duration of
    the attach (single-threaded worker startup / task context).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 only
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedCSR:
    """One published (or attached) CSR snapshot in shared memory.

    Attributes:
        name: The segment name — the only thing a worker needs to attach.
        nbytes: Size of the shared segment.
        graph: A :class:`CSRGraph` over the segment.  For an attached
            handle its columns are memoryview casts into shared pages;
            the publisher keeps the original (private-array) graph, which
            reads the same values.
        owner: Whether this handle created (and must unlink) the segment.
    """

    __slots__ = ("name", "nbytes", "graph", "owner", "_shm", "_views")

    def __init__(self, shm, graph, views, owner: bool) -> None:
        self._shm = shm
        self._views = views
        self.graph = graph
        self.owner = owner
        self.name = shm.name
        self.nbytes = shm.size

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, graph: CSRGraph, name: str | None = None) -> "SharedCSR":
        """Copy a snapshot's columns into a fresh shared segment."""
        columns = _columns(graph)
        total = _ITEM * _HEADER_SLOTS + sum(
            _ITEM * len(column) for _code, column in columns
        )
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        header = array("q", [
            MAGIC,
            LAYOUT_VERSION,
            1 if graph.directed else 0,
            graph.node_count,
            graph.edge_count,
        ])
        offset = 0
        for column in (("q", header), *columns):
            code, data = column
            raw = array(code, data).tobytes() if not isinstance(data, array) \
                else data.tobytes()
            shm.buf[offset:offset + len(raw)] = raw
            offset += len(raw)
        return cls(shm, graph, views=[], owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedCSR":
        """Map an existing segment and wrap it as a zero-copy graph."""
        shm = _attach_segment(name)
        views: list[memoryview] = []
        offset = 0

        def take(code: str, count: int) -> memoryview:
            nonlocal offset
            nbytes = _ITEM * count
            view = shm.buf[offset:offset + nbytes].cast(code)
            views.append(view)
            offset += nbytes
            return view

        try:
            header = take("q", _HEADER_SLOTS)
            if header[0] != MAGIC or header[1] != LAYOUT_VERSION:
                raise ValueError(
                    f"segment {name!r} is not a v{LAYOUT_VERSION} CSR "
                    f"snapshot (header {header[0]:#x}/{header[1]})"
                )
            directed = bool(header[2])
            nodes, edges = header[3], header[4]
            node_ids = take("q", nodes)
            forward = (
                take("q", nodes + 1), take("q", edges),
                take("q", edges), take("d", edges),
            )
            reverse = (
                take("q", nodes + 1), take("q", edges),
                take("q", edges), take("d", edges),
            ) if directed else (None, None, None, None)
            graph = CSRGraph.from_arrays(
                directed, node_ids, *forward, *reverse
            )
        except Exception:
            for view in views:
                view.release()
            shm.close()
            raise
        return cls(shm, graph, views, owner=False)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Every exported memoryview is released first — closing an mmap
        with live buffer exports raises ``BufferError``.  An attached
        handle's ``graph`` must not be used afterwards.
        """
        if self._shm is None:
            return
        for view in self._views:
            view.release()
        self._views = []
        self.graph = None
        self._shm.close()
        self._shm = None

    def unlink(self) -> None:
        """Reclaim the segment (owner only; idempotent, implies close)."""
        if not self.owner:
            raise ValueError(f"segment {self.name!r} is attached, not owned")
        shm = self._shm
        self.close()
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "owner" if self.owner else "attached"
        if self._shm is None:
            state = "closed"
        return f"SharedCSR({self.name!r}, {self.nbytes}B, {state})"


def _columns(graph: CSRGraph) -> tuple:
    """The snapshot's columns in segment order, with typecodes."""
    forward = (
        ("q", graph.node_ids),
        ("q", graph.indptr),
        ("q", graph.adj),
        ("q", graph.sids),
        ("d", graph.weights),
    )
    if not graph.directed:
        return forward
    return forward + (
        ("q", graph.rindptr),
        ("q", graph.radj),
        ("q", graph.rsids),
        ("d", graph.rweights),
    )
