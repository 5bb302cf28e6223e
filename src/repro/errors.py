"""Exception hierarchy for the NEAT reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class RoadNetworkError(ReproError):
    """Structural problem in a road network (unknown node, segment, ...)."""


class UnknownNodeError(RoadNetworkError):
    """A node id was referenced that does not exist in the network."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"unknown junction node: {node_id!r}")
        self.node_id = node_id


class UnknownSegmentError(RoadNetworkError):
    """A segment id was referenced that does not exist in the network."""

    def __init__(self, sid: int) -> None:
        super().__init__(f"unknown road segment: {sid!r}")
        self.sid = sid


class DuplicateSegmentError(RoadNetworkError):
    """Attempted to register a segment id twice."""

    def __init__(self, sid: int) -> None:
        super().__init__(f"duplicate road segment id: {sid!r}")
        self.sid = sid


class NoPathError(RoadNetworkError):
    """No route exists between two network locations."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no path from {source!r} to {target!r}")
        self.source = source
        self.target = target


class TrajectoryError(ReproError):
    """Malformed trajectory input (too few points, bad ordering, ...)."""


class MapMatchError(ReproError):
    """Map matching failed to assign a location to any road segment."""


class ClusteringError(ReproError):
    """A clustering phase received inconsistent input."""


class ConfigError(ReproError):
    """Invalid algorithm configuration (weights, thresholds, ...)."""


class ResilienceError(ReproError):
    """Base class for failures surfaced by the robustness layer."""


class DeadlineExceeded(ResilienceError):
    """An operation ran past its caller-supplied deadline."""

    def __init__(self, operation: str, budget_s: float) -> None:
        super().__init__(
            f"operation {operation!r} exceeded its {budget_s:.3f}s deadline"
        )
        self.operation = operation
        self.budget_s = budget_s


class RetriesExhausted(ResilienceError):
    """Every attempt allowed by a :class:`RetryPolicy` failed.

    The last underlying failure rides along as ``last_error`` (and as
    ``__cause__``).
    """

    def __init__(self, operation: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"operation {operation!r} failed after {attempts} attempt(s): "
            f"{last_error!r}"
        )
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open; the call was rejected without running."""

    def __init__(self, name: str, retry_after_s: float) -> None:
        super().__init__(
            f"circuit {name!r} is open (retry in {max(retry_after_s, 0.0):.3f}s)"
        )
        self.name = name
        self.retry_after_s = retry_after_s


class FaultInjected(ReproError):
    """The failure raised by the fault-injection harness (tests/benchmarks)."""

    def __init__(self, operation: str, call_index: int) -> None:
        super().__init__(
            f"injected fault in {operation!r} (call #{call_index})"
        )
        self.operation = operation
        self.call_index = call_index


class NodeDown(ResilienceError):
    """A data node was addressed after being marked dead."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"data node {node_id} is down")
        self.node_id = node_id


class TransportError(ResilienceError):
    """A wire-protocol call to a remote shard node failed.

    Raised by the distributed transport for every socket-level failure —
    refused connections, connections dropped mid-message, responses that
    never arrive, frames that fail their CRC.  ``kind`` names the
    failure mode (``"refused"``, ``"dropped"``, ``"stalled"``,
    ``"garbled"``, ``"protocol"``) so retry policies and tests can
    discriminate without string matching.
    """

    def __init__(self, address: str, kind: str, detail: str) -> None:
        super().__init__(f"transport to {address} failed ({kind}): {detail}")
        self.address = address
        self.kind = kind
        self.detail = detail


class HandshakeFailed(TransportError):
    """The versioned wire handshake with a shard node was rejected."""

    def __init__(self, address: str, detail: str) -> None:
        super().__init__(address, "handshake", detail)


class MalformedPayload(TransportError):
    """A packed wire payload whose columns disagree with its counts.

    The frame passed its CRC, so the bytes arrived as they were sent,
    but the columnar payload inside is inconsistent (a column shorter
    than its counts say, or not a whole number of items).  Decoding it
    anyway would build silently wrong trajectories or clusters.
    """

    def __init__(self, detail: str) -> None:
        super().__init__("packed payload", "protocol", detail)


class QuorumLost(ResilienceError):
    """Too few shards survived for the coordinator's configured quorum."""

    def __init__(self, surviving: int, dispatched: int, quorum: float) -> None:
        super().__init__(
            f"only {surviving}/{dispatched} shards survived "
            f"(quorum {quorum:.2f})"
        )
        self.surviving = surviving
        self.dispatched = dispatched
        self.quorum = quorum


class PersistenceError(ReproError):
    """Base class for durable-storage failures (snapshots, journals)."""


class CorruptSnapshot(PersistenceError):
    """A persisted artifact failed its checksum or could not be decoded.

    Raised for any verified-on-read artifact — snapshot generations,
    journal records, serialized results — whose bytes are present but
    wrong (bit flips, tampering, schema-breaking truncation inside a
    complete frame).  ``path`` names the offending file.
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(f"corrupt persistence artifact {str(path)!r}: {detail}")
        self.path = str(path)
        self.detail = detail


class TornWrite(PersistenceError):
    """A persisted artifact ends mid-record (an interrupted write).

    Distinct from :class:`CorruptSnapshot`: the readable prefix is intact
    but the declared length runs past end-of-file — the classic signature
    of a crash between ``write()`` and ``fsync``/rename.
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(f"torn write in {str(path)!r}: {detail}")
        self.path = str(path)
        self.detail = detail


class RecoveryError(PersistenceError):
    """Recovery could not restore a consistent state from a state dir."""

    def __init__(self, state_dir: object, detail: str) -> None:
        super().__init__(f"recovery from {str(state_dir)!r} failed: {detail}")
        self.state_dir = str(state_dir)
        self.detail = detail


class ServiceOverloaded(ReproError):
    """Admission control rejected a batch: the pending queue is full."""

    def __init__(self, pending: int, max_pending: int) -> None:
        super().__init__(
            f"service overloaded: {pending} pending batch(es), "
            f"max_pending={max_pending}"
        )
        self.pending = pending
        self.max_pending = max_pending


class ServiceUnavailable(ReproError):
    """A query failed and no previously validated snapshot exists to serve."""
