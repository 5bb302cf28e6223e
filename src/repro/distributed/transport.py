"""The shard node and its wire protocol: framed JSON RPC over TCP.

:class:`ShardNode` is the one data-node role: a socket-free op handler
for Phase 1 and Phase 3 distances.  :class:`ShardNodeServer` serves it
on TCP to shard processes (``repro shard-node``) reached through
:class:`TransportClient`, where node loss is a killed process and a
refused connect; :class:`InProcessClient` hands the same request dicts
to a :class:`ShardNode` in this process.  The coordinator drives either
through :class:`RemoteDataNode`.

**Framing** is :mod:`repro.framing`'s, shared with the persistence
journal: every message is one frame of
``magic | payload-length u32 BE | crc32 u32 BE | payload`` with its own
magic (``RPW1``).  A frame that ends early is *torn* (the
peer died mid-send — the connection is closed); a complete frame whose
CRC fails is *garbled* (the server answers with a typed error so the
client can tell corruption from loss).

**Handshake**: the first exchange on every connection is a versioned
hello — the client sends ``{"op": "hello", "proto": N}``, the server
accepts or rejects with its own version.  A mismatch on either side
raises :class:`~repro.errors.HandshakeFailed` before any payload moves.
A message or reply that is not a JSON object gets a typed error too: the
server answers ``ok: false`` (counted in ``bad_frames``) and closes, the
client raises :class:`~repro.errors.MalformedPayload`.

**RPCs** are JSON objects (``sort_keys=True`` end to end, so two
identical runs put byte-identical frames on the wire): ``ping``,
``preprocess`` (Phase 1 over shipped trajectories), ``distances`` (one
span of Phase 3's planned grouped searches, run on the shard's
replicated network — the shard executor of Phase 3), ``stats``,
``reset`` (server closes the connection after replying) and
``shutdown``.  Payloads travel only as packed columnar arrays
(:func:`trajectories_to_packed` / :func:`clusters_to_packed`, and the
``distances`` columns: flat little-endian typed columns, base64-wrapped
in the JSON envelope; exact, deterministic, and several times cheaper to
encode than nested number lists).  A request or reply whose columns are
missing or disagree with their counts is a typed error at either end
(``ok: false`` / ``protocol`` from the server,
:class:`~repro.errors.MalformedPayload` at the client), never an empty
or short result.

**Connections are persistent**: a :class:`TransportClient` keeps its
socket open across calls behind a small per-node
:class:`ConnectionPool` (handshake once per connection, idle timeout,
LIFO reuse).  A stale pooled socket — the server closed it between
calls — triggers exactly one transparent reconnect-and-resend, counted
in ``transport.reconnects``; injected faults never retry transparently,
so chaos schedules land at the same deterministic 1-based call indexes
they did with one-connection-per-call.  :meth:`TransportClient.start` /
:meth:`TransportClient.finish` split a call into its request and
response halves so a coordinator can *pipeline* — write requests to
every node before reading any response.

**Fault injection** is scheduled by the ordinary
:class:`~repro.resilience.FaultPlan` connection-fault fields (a
``fail_nth`` / ``kill_from`` call is a ``refuse``) and *performed* here
at the socket layer, so the observed errors are organic (an
:class:`InProcessClient` raises the same error kinds):

* ``refuse`` — the client never connects (as if the process is gone);
* ``drop``   — the client sends half the request frame and closes; the
  server sees a torn frame, the client reads EOF;
* ``stall``  — the request carries a ``_stall_s`` chaos field the server
  honors before replying, so the client's real socket timeout fires;
* ``garble`` — one payload bit of the outgoing frame is flipped; the
  server's CRC check rejects it.

Every wire call and failure is counted in the ``transport.*`` family
(requests, bytes, handshakes, errors and one counter per fault kind).
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import os
import socket
import socketserver
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Sequence

from .. import framing
from ..core.base_cluster import BaseCluster, form_base_clusters
from ..core.model import Location, TFragment, Trajectory
from ..errors import HandshakeFailed, MalformedPayload, NodeDown, TransportError
from ..gcpause import gc_paused
from ..obs import get_logger
from ..resilience import FaultInjector
from ..roadnet.network import RoadNetwork

__all__ = [
    "PROTOCOL_VERSION",
    "ConnectionPool",
    "InProcessClient",
    "RemoteDataNode",
    "ShardNode",
    "ShardNodeServer",
    "ShardProcess",
    "TransportClient",
    "clusters_from_packed",
    "clusters_to_packed",
    "decode_frame",
    "encode_frame",
    "spawn_local_shards",
    "stop_shards",
    "trajectories_from_packed",
    "trajectories_to_packed",
]

_log = get_logger("distributed.transport")

#: Wire protocol version; bumped on any frame- or message-schema change.
#: v2 added ``batch``, ``distances`` and ``reset`` plus persistent
#: connections (the framing itself is unchanged); v3 dropped the row
#: schema, so ``preprocess`` speaks only the packed columnar payloads;
#: v4 ships ``distances`` as packed groups (``sources`` / ``counts`` /
#: ``targets`` in, ``distances`` / ``expanded`` out) and drops ``batch``.
PROTOCOL_VERSION = 4

#: Wire frame magic (the header layout is :mod:`repro.framing`'s).
FRAME_MAGIC = b"RPW1"
FRAME_HEADER = framing.HEADER

#: Upper bound on a single frame payload (a shard of trajectories is
#: megabytes, not gigabytes; anything larger is a corrupt length field).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Ceiling on the honored chaos stall (a runaway plan must not wedge a
#: server thread forever).
MAX_STALL_S = 30.0


class FrameError(Exception):
    """A complete-but-wrong frame (bad magic, bad CRC, absurd length)."""


class TornFrame(Exception):
    """The stream ended mid-frame (peer died or dropped mid-send)."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def encode_frame(payload: bytes) -> bytes:
    """One wire frame around ``payload``."""
    return framing.encode(FRAME_MAGIC, payload)


def decode_frame(data: bytes) -> bytes:
    """The payload of a complete frame in ``data`` (exact length).

    Raises:
        TornFrame: ``data`` is shorter than the frame declares.
        FrameError: Bad magic, oversized length, or CRC mismatch.
    """
    payload = read_frame(io.BytesIO(data))
    if payload is None:
        raise TornFrame(f"0 byte(s), header needs {FRAME_HEADER.size}")
    return payload


def _read_exact(rfile: Any, count: int) -> bytes:
    """Exactly ``count`` bytes from a socket file, or what EOF left."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = rfile.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(rfile: Any) -> bytes | None:
    """The next frame payload from a socket file.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    the connection between messages — the normal end of a session).

    Raises:
        TornFrame: EOF inside a frame.
        FrameError: A complete frame that fails validation.
    """
    header = _read_exact(rfile, FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < FRAME_HEADER.size:
        raise TornFrame(f"header {len(header)}/{FRAME_HEADER.size} byte(s)")
    try:
        length, crc = framing.check_header(
            header, 0, FRAME_MAGIC, MAX_FRAME_BYTES
        )
        payload = _read_exact(rfile, length)
        if len(payload) < length:
            raise TornFrame(f"payload {len(payload)}/{length} byte(s)")
        framing.check_crc(payload, crc)
    except framing.BadFrame as error:
        raise FrameError(str(error)) from None
    return payload


def _encode_message(message: dict[str, Any]) -> bytes:
    return encode_frame(
        json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    )


# ----------------------------------------------------------------------
# Payload schemas (packed columnar arrays)
# ----------------------------------------------------------------------
def _pack_array(values: array, byteswap: bool = sys.byteorder == "big") -> str:
    """A typed array as base64 of its little-endian bytes.

    Fixed little-endian layout keeps the wire bytes identical across
    hosts; IEEE-754 doubles round-trip exactly, so packed floats are
    bit-identical on arrival — stronger than the shortest-repr JSON
    round trip, and an order of magnitude cheaper to produce.
    """
    if byteswap:
        values = array(values.typecode, values)
        values.byteswap()
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack_array(payload: dict[str, Any], name: str, typecode: str) -> array:
    """Column ``name`` of a packed payload, back to a typed array.

    Raises:
        MalformedPayload: The column is missing or not a string, is not
            base64, or its bytes are not a whole number of items.
    """
    column = payload.get(name) if isinstance(payload, dict) else None
    if not isinstance(column, str):
        raise MalformedPayload(f"column {name!r} is missing or not a string")
    values = array(typecode)
    try:
        values.frombytes(base64.b64decode(column.encode("ascii")))
    except ValueError as error:  # binascii.Error is a ValueError
        raise MalformedPayload(f"column {name!r}: {error}") from None
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _sized_column(
    payload: dict[str, Any], name: str, typecode: str, expected: int
) -> array:
    """:func:`_unpack_array`, checked against the length its counts imply.

    The CRC only proves the payload arrived as sent; a column that
    disagrees with its counts would otherwise be sliced into silently
    short (or empty) trajectories and fragments.
    """
    values = _unpack_array(payload, name, typecode)
    if len(values) != expected:
        raise MalformedPayload(
            f"column {name!r} holds {len(values)} items, "
            f"its counts say {expected}"
        )
    return values


class _LocationColumns:
    """Flat per-location columns shared by the packed payload schemas."""

    __slots__ = ("sids", "nodes", "xs", "ys", "ts")

    def __init__(self) -> None:
        self.sids = array("q")
        self.nodes = array("q")
        self.xs = array("d")
        self.ys = array("d")
        self.ts = array("d")

    def add(self, locations: Sequence[Location]) -> None:
        # Five C-level extends instead of one Python-level loop doing
        # five appends per location: the encode half of the wire cost.
        self.sids.extend(location.sid for location in locations)
        self.nodes.extend(
            -1 if location.node_id is None else location.node_id
            for location in locations
        )
        self.xs.extend(location.x for location in locations)
        self.ys.extend(location.y for location in locations)
        self.ts.extend(location.t for location in locations)

    def to_payload(self) -> dict[str, str]:
        return {
            "sids": _pack_array(self.sids),
            "nodes": _pack_array(self.nodes),
            "xs": _pack_array(self.xs),
            "ys": _pack_array(self.ys),
            "ts": _pack_array(self.ts),
        }


def _node_ids(nodes: array) -> list[int | None]:
    """The packed node column back to ``node_id`` values (-1 -> None)."""
    # dict.get(n, n) at map() speed: -1 -> None, anything else unchanged.
    sentinel: dict[int, None] = {-1: None}
    return list(map(sentinel.get, nodes, nodes))


def _trusted_fragment(
    trid: int, sid: int, locations: tuple[Location, ...]
) -> TFragment:
    """A t-fragment without the per-location ``__post_init__`` sid scan.

    Only for wire decoding: the CRC-framed payload was encoded from real
    :class:`TFragment` objects, so the every-location-on-this-segment
    invariant holds by construction (the packed cluster schema doesn't
    even carry per-location sids — they are re-derived from the cluster
    sid).  Re-validating ~4 locations x ~30k fragments per reply was a
    measurable slice of coordinator decode time.
    """
    fragment = object.__new__(TFragment)
    object.__setattr__(fragment, "trid", trid)
    object.__setattr__(fragment, "sid", sid)
    object.__setattr__(fragment, "locations", locations)
    return fragment


def trajectories_to_packed(
    trajectories: Iterable[Trajectory],
) -> dict[str, str]:
    """Trajectories as packed columnar arrays (the hot-path schema).

    A row schema of nested number lists spends most of a dispatch
    inside ``json.dumps``/``json.loads``; at bench scale that
    serialization alone outweighed the Phase 1 compute being
    distributed.  This packs the values into five flat typed columns
    (sid / node / x / y / t) plus per-trajectory offsets,
    base64-wrapped into an ordinary JSON envelope — exact,
    deterministic, and ~6x faster to encode.
    """
    trids = array("q")
    counts = array("I")
    columns = _LocationColumns()
    for trajectory in trajectories:
        trids.append(trajectory.trid)
        counts.append(len(trajectory.locations))
        columns.add(trajectory.locations)
    payload = columns.to_payload()
    payload["trids"] = _pack_array(trids)
    payload["counts"] = _pack_array(counts)
    return payload


def trajectories_from_packed(payload: dict[str, Any]) -> list[Trajectory]:
    """Trajectories rebuilt from :func:`trajectories_to_packed` output.

    Raises:
        MalformedPayload: A column disagrees with the per-trajectory
            counts.
    """
    trids = _unpack_array(payload, "trids", "q")
    counts = _sized_column(payload, "counts", "I", len(trids))
    total = sum(counts)
    with gc_paused:
        # One C-speed map over the whole column set, then cheap list
        # slices per trajectory — not a Python loop with per-index
        # array access.
        locations = list(map(
            Location,
            _sized_column(payload, "sids", "q", total),
            _sized_column(payload, "xs", "d", total),
            _sized_column(payload, "ys", "d", total),
            _sized_column(payload, "ts", "d", total),
            _node_ids(_sized_column(payload, "nodes", "q", total)),
        ))
        trajectories: list[Trajectory] = []
        offset = 0
        for trid, count in zip(trids, counts):
            end = offset + count
            trajectories.append(
                Trajectory(trid, tuple(locations[offset:end]))
            )
            offset = end
    return trajectories


def clusters_to_packed(clusters: Iterable[BaseCluster]) -> dict[str, str]:
    """Base clusters as packed columnar arrays (hot-path reply schema).

    Leaner than the trajectory schema: every fragment in a base cluster
    shares the cluster's sid, and every location in a fragment shares the
    fragment's sid — so the reply carries *no* sid columns at all beyond
    one sid per cluster.  The decoder re-derives the rest, which both
    shrinks the reply (8 bytes per location + 8 per fragment) and makes
    decode-side re-validation unnecessary.
    """
    cluster_sids = array("q")
    fragment_counts = array("I")
    fragment_trids = array("q")
    location_counts = array("I")
    nodes = array("q")
    xs = array("d")
    ys = array("d")
    ts = array("d")
    for cluster in clusters:
        cluster_sids.append(cluster.sid)
        fragment_counts.append(len(cluster.fragments))
        for fragment in cluster.fragments:
            locations = fragment.locations
            fragment_trids.append(fragment.trid)
            location_counts.append(len(locations))
            nodes.extend(
                -1 if location.node_id is None else location.node_id
                for location in locations
            )
            xs.extend(location.x for location in locations)
            ys.extend(location.y for location in locations)
            ts.extend(location.t for location in locations)
    return {
        "cluster_sids": _pack_array(cluster_sids),
        "fragment_counts": _pack_array(fragment_counts),
        "fragment_trids": _pack_array(fragment_trids),
        "location_counts": _pack_array(location_counts),
        "nodes": _pack_array(nodes),
        "xs": _pack_array(xs),
        "ys": _pack_array(ys),
        "ts": _pack_array(ts),
    }


def clusters_from_packed(payload: dict[str, Any]) -> list[BaseCluster]:
    """Base clusters rebuilt from :func:`clusters_to_packed` output.

    The coordinator decodes one of these per shard per run, each roughly
    dataset-sized — this is the hottest deserialization path in the
    distributed tier, so everything bulk happens at C speed: sids are
    expanded per cluster with ``repeat``, the full location list is built
    by a single ``map`` over the flat columns, and fragments take cheap
    list slices of it (see :func:`_trusted_fragment` for why the
    per-fragment sid scan is skipped).

    Raises:
        MalformedPayload: A column disagrees with the per-cluster or
            per-fragment counts, or a cluster holds no fragments, or a
            fragment holds no locations.
    """
    cluster_sids = _unpack_array(payload, "cluster_sids", "q")
    fragment_counts = _sized_column(
        payload, "fragment_counts", "I", len(cluster_sids)
    )
    if 0 in fragment_counts:
        raise MalformedPayload("a cluster holds no fragments")
    fragment_total = sum(fragment_counts)
    fragment_trids = _sized_column(payload, "fragment_trids", "q", fragment_total)
    location_counts = _sized_column(
        payload, "location_counts", "I", fragment_total
    )
    if 0 in location_counts:
        raise MalformedPayload("a fragment holds no locations")
    total = sum(location_counts)
    # Check every location column before expanding the sids: the counts
    # alone could claim billions of locations.
    xs = _sized_column(payload, "xs", "d", total)
    ys = _sized_column(payload, "ys", "d", total)
    ts = _sized_column(payload, "ts", "d", total)
    nodes = _sized_column(payload, "nodes", "q", total)
    with gc_paused:
        sids: list[int] = []
        start = 0
        for sid, count in zip(cluster_sids, fragment_counts):
            end = start + count
            sids.extend(repeat(sid, sum(location_counts[start:end])))
            start = end
        locations = list(map(Location, sids, xs, ys, ts, _node_ids(nodes)))
        clusters: list[BaseCluster] = []
        fragment_index = 0
        offset = 0
        for sid, count in zip(cluster_sids, fragment_counts):
            fragments: list[TFragment] = []
            for _ in range(count):
                end = offset + location_counts[fragment_index]
                fragments.append(_trusted_fragment(
                    fragment_trids[fragment_index],
                    sid,
                    tuple(locations[offset:end]),
                ))
                offset = end
                fragment_index += 1
            clusters.append(BaseCluster(sid, fragments))
    return clusters


# ----------------------------------------------------------------------
# Shard node and its TCP server
# ----------------------------------------------------------------------
def _protocol_error(error: str) -> dict[str, Any]:
    return {"ok": False, "kind": "protocol", "error": error}


class ShardNode:
    """One shard node's op handler: Phase 1 and Phase 3 distances.

    :meth:`execute` answers one request dict (what the wire carries,
    packed columns included) with a reply dict.  There is no socket
    here: :class:`ShardNodeServer` adds the TCP front, and
    :class:`InProcessClient` calls :meth:`execute` directly.

    Args:
        network: The (replicated) road network this node works on.
        node_id: Identifier reported in handshakes and stats.
    """

    def __init__(self, network: RoadNetwork, node_id: int = 0) -> None:
        self.network = network
        self.node_id = node_id
        self.requests = 0
        self.preprocess_calls = 0
        self.trajectories_processed = 0
        self.distance_calls = 0
        self.distance_groups = 0
        self.connections = 0
        self.bad_frames = 0
        self.torn_frames = 0

    def execute(self, message: dict) -> tuple[dict[str, Any], str]:
        """One op's response plus the connection action it implies.

        The action is ``"keep"`` (serve the next frame), ``"close"``
        (reply, then end the connection — ``reset``) or ``"shutdown"``
        (reply, then stop the whole server).  Op failures come back as
        ``ok: false`` replies; this method never raises.
        """
        if not isinstance(message, dict):
            return _protocol_error("message is not a JSON object"), "keep"
        op = message.get("op")
        try:
            payload = message.get("payload") or {}
            self.requests += 1
            if op == "ping":
                return {"ok": True, "result": {"node_id": self.node_id}}, "keep"
            if op == "preprocess":
                if "trajectories_packed" not in payload:
                    # An empty shard still sends empty columns; a missing
                    # key is a broken client, not zero trajectories.
                    return _protocol_error(
                        "preprocess payload lacks 'trajectories_packed'"
                    ), "keep"
                trajectories = trajectories_from_packed(
                    payload["trajectories_packed"]
                )
                clusters = form_base_clusters(
                    self.network,
                    trajectories,
                    keep_interior_points=bool(
                        payload.get("keep_interior_points", False)
                    ),
                )
                self.preprocess_calls += 1
                self.trajectories_processed += len(trajectories)
                return {
                    "ok": True,
                    "result": {"clusters_packed": clusters_to_packed(clusters)},
                }, "keep"
            if op == "distances":
                return {"ok": True, "result": self.compute_distances(payload)}, "keep"
            if op == "stats":
                return {"ok": True, "result": self.stats()}, "keep"
            if op == "reset":
                # A server-initiated connection close: the reply goes
                # out, then the connection ends.  A pooled client
                # discovers the close on its next reuse and reconnects.
                # Benches use this between rounds so every round opens
                # fresh connections.
                return {"ok": True, "result": {"closing": True}}, "close"
            if op == "shutdown":
                return {"ok": True, "result": {"stopping": True}}, "shutdown"
            return _protocol_error(f"unknown op {op!r}"), "keep"
        except Exception as error:  # surface, never kill the connection loop
            _log.error("request failed", op=op, error=repr(error))
            return _protocol_error(f"{type(error).__name__}: {error}"), "keep"

    def stats(self) -> dict[str, Any]:
        """Served-request counters (the ``stats`` RPC body)."""
        return {
            "node_id": self.node_id,
            "requests": self.requests,
            "preprocess_calls": self.preprocess_calls,
            "trajectories_processed": self.trajectories_processed,
            "distance_calls": self.distance_calls,
            "distance_groups": self.distance_groups,
            "connections": self.connections,
            "bad_frames": self.bad_frames,
            "torn_frames": self.torn_frames,
        }

    # -- shard-side Phase 3 ---------------------------------------------
    def compute_distances(self, payload: dict[str, Any]) -> dict[str, str]:
        """Run one span of Phase 3's planned groups on the local network.

        The shard executor of Phase 3.  ``payload`` packs whole groups as
        int64 columns (``sources``, ``counts`` of targets per group,
        ``targets`` back to back) plus the eps ``cutoff``; each group runs
        the bounded kernel a serial run does, so every value is
        bit-identical.  The reply packs one float64 distance per target
        (infinity beyond the cutoff) and one int64 ``expanded`` count per
        group.

        Raises:
            MalformedPayload: A column is missing, not base64 or
                disagrees with the counts, a count is negative, a
                junction is not in the network, or the cutoff is not a
                finite number >= 0.
        """
        cutoff = payload.get("cutoff")
        if isinstance(cutoff, bool) or not isinstance(cutoff, (int, float)) or not (
            math.isfinite(cutoff) and cutoff >= 0
        ):
            raise MalformedPayload(f"cutoff {cutoff!r} is not a finite number >= 0")
        sources = _unpack_array(payload, "sources", "q")
        counts = _sized_column(payload, "counts", "q", len(sources))
        if any(count < 0 for count in counts):
            raise MalformedPayload("a group has a negative target count")
        targets = _sized_column(payload, "targets", "q", sum(counts))
        for node in (*sources, *targets):
            if not self.network.has_node(node):
                raise MalformedPayload(f"junction {node} is not in the network")
        graph = self.network.csr(False)
        distances, expanded = array("d"), array("q")
        offset = 0
        for source, count in zip(sources, counts):
            group = targets[offset:offset + count]
            offset += count
            found, settled = graph.multi_target_distances(source, group, cutoff)
            distances.extend(found.get(target, math.inf) for target in group)
            expanded.append(settled)
        self.distance_calls += 1
        self.distance_groups += len(sources)
        return {"distances": _pack_array(distances), "expanded": _pack_array(expanded)}


class _ShardTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Bound by ShardNodeServer before serving starts.
    shard: "ShardNodeServer"


class _ShardHandler(socketserver.StreamRequestHandler):
    """One connection: hello handshake, then request frames until EOF.

    Connections are long-lived — a well-behaved client sends many
    request frames over one handshake.  The loop only ends on EOF, a
    torn/garbled frame, a rejected hello, or a ``reset``/``shutdown``
    op.
    """

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        shard = self.server.shard  # type: ignore[attr-defined]
        shard.connections += 1
        greeted = False
        while True:
            try:
                payload = read_frame(self.rfile)
            except TornFrame as error:
                shard.torn_frames += 1
                _log.debug("torn frame", peer=self.client_address, error=str(error))
                return
            except FrameError as error:
                shard.bad_frames += 1
                self._reply({
                    "ok": False, "kind": "garbled",
                    "error": f"rejected frame: {error}",
                })
                return
            if payload is None:
                return
            try:
                message = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                shard.bad_frames += 1
                self._reply(_protocol_error(f"payload is not JSON: {error}"))
                return
            if not isinstance(message, dict):
                shard.bad_frames += 1
                self._reply(_protocol_error("message is not a JSON object"))
                return
            if not greeted:
                if not self._handshake(shard, message):
                    return
                greeted = True
                continue
            if not self._serve_request(shard, message):
                return

    # -- steps ----------------------------------------------------------
    def _handshake(self, shard: "ShardNodeServer", message: dict) -> bool:
        if message.get("op") != "hello":
            shard.bad_frames += 1
            self._reply({
                "ok": False, "kind": "handshake",
                "error": "first message must be a hello",
            })
            return False
        proto = message.get("proto")
        if proto != PROTOCOL_VERSION:
            self._reply({
                "ok": False, "kind": "handshake",
                "error": (
                    f"unsupported protocol version {proto!r} "
                    f"(server speaks {PROTOCOL_VERSION})"
                ),
            })
            return False
        self._reply({
            "ok": True,
            "proto": PROTOCOL_VERSION,
            "node_id": shard.node_id,
            "network": shard.network.name,
        })
        return True

    def _serve_request(self, shard: "ShardNodeServer", message: dict) -> bool:
        stall_s = message.get("_stall_s")
        if stall_s:
            # The chaos hook behind FaultPlan.stall_nth: hold the reply
            # past the client's read deadline so its timeout fires for
            # real.  Bounded so a bad plan cannot wedge the thread.
            time.sleep(min(float(stall_s), MAX_STALL_S))
        response, action = shard.execute(message)
        self._reply(response)
        if action == "shutdown":
            shard.request_shutdown()
            return False
        return action != "close"

    def _reply(self, message: dict[str, Any]) -> None:
        try:
            self.wfile.write(_encode_message(message))
            self.wfile.flush()
        except OSError:  # peer vanished mid-reply; nothing to salvage
            pass


class ShardNodeServer(ShardNode):
    """A :class:`ShardNode` served on TCP.

    Adds only the wire front: framing, the hello handshake, the
    ``_stall_s`` chaos hook and the connection actions.

    Args:
        network, node_id: As for :class:`ShardNode`.
        host: Bind address (loopback by default).
        port: TCP port; 0 picks an ephemeral one.
    """

    def __init__(
        self,
        network: RoadNetwork,
        node_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(network, node_id)
        self._server = _ShardTCPServer((host, port), _ShardHandler)
        self._server.shard = self
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()

    # -- address --------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ShardNodeServer":
        """Serve on a daemon thread (idempotent while running)."""
        if self.running:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-shard-node:{self.port}",
            daemon=True,
        )
        self._thread.start()
        _log.info("shard node listening", node=self.node_id, address=self.address)
        return self

    def serve_until_shutdown(self, poll_s: float = 0.2) -> None:
        """Serve on the calling thread until a ``shutdown`` op or signal.

        The blocking mode ``repro shard-node`` uses: :meth:`stop` (e.g.
        from a signal handler) and the wire ``shutdown`` op both return
        control here.
        """
        self.start()
        while self.running and not self._shutdown_requested.wait(poll_s):
            pass
        self.stop()

    def request_shutdown(self) -> None:
        """Ask the serving loop to stop (safe from handler threads)."""
        self._shutdown_requested.set()

    def stop(self) -> None:
        """Shut down and join the serving thread (idempotent)."""
        self._shutdown_requested.set()
        thread = self._thread
        if thread is None:
            return
        self._server.shutdown()
        thread.join(timeout=5.0)
        self._server.server_close()
        self._thread = None


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _Connection:
    """One established, handshaken socket to a shard node."""

    __slots__ = ("sock", "rfile", "last_used")

    def __init__(self, sock: socket.socket, rfile: Any) -> None:
        self.sock = sock
        self.rfile = rfile
        self.last_used = time.monotonic()

    def close(self) -> None:
        for handle in (self.rfile, self.sock):
            with contextlib.suppress(OSError):
                handle.close()


class ConnectionPool:
    """Idle handshaken connections for one shard node (LIFO reuse).

    Args:
        size: Maximum idle connections kept (``0`` disables pooling —
            every call pays a fresh connect + handshake, the pre-pool
            behavior).
        idle_timeout_s: A connection idle longer than this is closed on
            checkout instead of reused (servers and middleboxes reap
            quiet sockets; reusing one would surface as a spurious
            error).
    """

    def __init__(self, size: int = 1, idle_timeout_s: float = 30.0) -> None:
        if size < 0:
            raise ValueError(f"pool size must be >= 0, got {size}")
        if idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be > 0, got {idle_timeout_s}"
            )
        self.size = size
        self.idle_timeout_s = idle_timeout_s
        self._idle: list[_Connection] = []

    def __len__(self) -> int:
        return len(self._idle)

    def checkout(self) -> tuple[_Connection | None, int]:
        """The most recently used live idle connection, if any.

        Returns ``(connection, expired)`` where ``expired`` counts idle
        connections discarded for outliving the idle timeout.
        """
        now = time.monotonic()
        expired = 0
        while self._idle:
            connection = self._idle.pop()
            if now - connection.last_used > self.idle_timeout_s:
                connection.close()
                expired += 1
                continue
            return connection, expired
        return None, expired

    def checkin(self, connection: _Connection) -> bool:
        """Return a healthy connection; False when the pool is full."""
        if len(self._idle) >= self.size:
            connection.close()
            return False
        connection.last_used = time.monotonic()
        self._idle.append(connection)
        return True

    def close_all(self) -> None:
        """Close every idle connection (idempotent)."""
        while self._idle:
            self._idle.pop().close()


@dataclass(slots=True)
class _PendingCall:
    """An in-flight pipelined RPC: request written, response unread."""

    op: str
    connection: _Connection | None
    reused: bool
    fault: str | None
    frame: bytes
    #: The handler's reply dict, for in-process calls.
    reply: dict[str, Any] | None = None


#: The ``TransportError`` kind each scheduled connection fault produces.
_FAULT_KINDS = {"refuse": "refused", "drop": "dropped",
                "stall": "stalled", "garble": "garbled"}

#: What reading a reply can raise (``socket.timeout`` is an ``OSError``).
_READ_ERRORS = (FrameError, TornFrame, EOFError, OSError)


def _request(op: str, payload: dict[str, Any] | None) -> dict[str, Any]:
    return {"op": op} if payload is None else {"op": op, "payload": payload}


class _NodeClient:
    """What both node clients share: fault scheduling and reply unwrapping.

    Subclasses provide ``address`` and the call halves ``start`` (send
    one request) and ``finish`` (read its reply).
    """

    address: str

    def __init__(
        self, faults: FaultInjector | None, fault_operation: str | None,
        metrics: Any,
    ) -> None:
        self.faults = faults
        self.fault_operation = fault_operation
        self.metrics = metrics
        self.calls = 0

    def _inc(self, name: str, description: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount=amount, description=description)

    def _fail(self, kind: str, detail: str) -> TransportError:
        self._inc("transport.errors", "Wire calls that failed")
        if kind in _FAULT_KINDS.values():
            self._inc(f"transport.{kind}", f"Wire calls that failed as {kind!r}")
        return TransportError(self.address, kind, detail)

    def _begin(self) -> tuple[str | None, Any]:
        """Count one call; return ``(fault, plan)`` scheduled for it.

        Faults land at 1-based call indexes of ``fault_operation``.  A
        ``refuse`` raises here: the request never reaches the node.
        """
        self.calls += 1
        fault = plan = None
        if self.faults is not None and self.fault_operation is not None:
            fault, plan = self.faults.connection_fault(self.fault_operation)
        if fault is not None:
            self.faults.record_injected(self.fault_operation)
        self._inc("transport.requests", "Wire calls issued")
        if fault == "refuse":
            raise self._fail(
                "refused", f"connection refused (injected, call #{self.calls})"
            )
        return fault, plan

    def _result(self, message: dict[str, Any]) -> Any:
        """A reply's ``result``, or the :class:`TransportError` it names."""
        if message.get("ok"):
            return message.get("result")
        kind = str(message.get("kind", "protocol"))
        if kind not in _FAULT_KINDS.values():
            kind = "protocol"
        raise self._fail(kind, str(message.get("error", "request rejected")))

    def call(self, op: str, payload: dict[str, Any] | None = None) -> Any:
        """One RPC: request then response; returns its ``result``.

        Raises :class:`TransportError` (``kind`` names the failure mode),
        or :class:`HandshakeFailed` for a rejected hello.
        """
        return self.finish(self.start(op, payload))


class InProcessClient(_NodeClient):
    """A node client that hands request dicts straight to a :class:`ShardNode`.

    No socket and no JSON: :meth:`start` runs the request dict the wire
    would carry, packed columns included, through
    :meth:`ShardNode.execute`.  Armed faults raise the error kind the
    TCP client would: ``refuse`` at :meth:`start`, the others at
    :meth:`finish` (a dropped or garbled request never runs).
    """

    def __init__(
        self, node: ShardNode, faults: FaultInjector | None = None,
        fault_operation: str | None = None,
    ) -> None:
        super().__init__(faults, fault_operation, metrics=None)
        self.node = node
        self.address = f"in-process:{node.node_id}"

    def start(
        self, op: str, payload: dict[str, Any] | None = None
    ) -> _PendingCall:
        fault, _ = self._begin()
        pending = _PendingCall(op, None, False, fault, b"")
        if fault not in ("drop", "garble"):
            pending.reply, _ = self.node.execute(_request(op, payload))
        return pending

    def finish(self, pending: _PendingCall) -> Any:
        if pending.fault is not None:
            raise self._fail(
                _FAULT_KINDS[pending.fault],
                f"{pending.op}: injected {pending.fault}",
            )
        return self._result(pending.reply)


class TransportClient(_NodeClient):
    """A wire client for one shard node, with persistent connections.

    The client keeps its socket open across calls behind a small
    :class:`ConnectionPool` — the versioned handshake runs once per
    *connection*, not once per call.  When a pooled socket turns out to
    be dead (the server closed it between calls) the client reconnects
    exactly once and resends, counting the event in
    ``transport.reconnects``; a call carrying an injected fault never
    retries transparently, so chaos schedules stay deterministic.

    :meth:`start` / :meth:`finish` split a call into its write and read
    halves for pipelined dispatch; :meth:`call` is the blocking
    composition of the two.

    Args:
        host: Shard node address.
        port: Shard node port.
        timeout_s: Socket timeout for connect and reads — the *real*
            deadline a stalled peer runs into.
        faults: Optional injector; when armed against
            ``fault_operation``, connection faults fire at their
            scheduled 1-based call indexes.
        fault_operation: The injection-point name for this client
            (convention: ``transport.node{id}``).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving the ``transport.*`` and ``pool.connections_*``
            counters.
        proto: Protocol version offered in the handshake (overridable
            only to test mismatch handling).
        pool_size: Idle connections kept per node (``0`` disables
            reuse: one connection per call, the pre-pool behavior).
        idle_timeout_s: Idle expiry for pooled connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 5.0,
        faults: FaultInjector | None = None,
        fault_operation: str | None = None,
        metrics: Any = None,
        proto: int = PROTOCOL_VERSION,
        pool_size: int = 1,
        idle_timeout_s: float = 30.0,
    ) -> None:
        super().__init__(faults, fault_operation, metrics)
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.proto = proto
        self.pool = ConnectionPool(pool_size, idle_timeout_s=idle_timeout_s)
        # True when an established connection has been discarded since
        # the last connect — the next connect is then a *reconnect*.
        self._dirty = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        """Close every pooled connection (the client stays usable)."""
        self.pool.close_all()

    def _sent(self, data: bytes) -> None:
        self._inc(
            "transport.bytes_sent", "Payload bytes written to the wire",
            amount=len(data),
        )

    # -- connection management ------------------------------------------
    def _connect(self) -> _Connection:
        """A fresh handshaken connection (counted, reconnect-aware)."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        except OSError as error:
            raise self._fail("refused", str(error)) from error
        rfile = sock.makefile("rb")
        try:
            self._handshake(sock, rfile)
        except BaseException:
            try:
                rfile.close()
                sock.close()
            except OSError:
                pass
            raise
        self._inc(
            "pool.connections_opened",
            "Shard connections established (one handshake each)",
        )
        if self._dirty:
            self._dirty = False
            self._inc(
                "transport.reconnects",
                "Connections re-established after a pooled one was lost",
            )
        return _Connection(sock, rfile)

    def _acquire(self) -> tuple[_Connection, bool]:
        """A connection to run one call on: pooled when possible."""
        connection, expired = self.pool.checkout()
        if expired:
            self._inc(
                "pool.idle_closed",
                "Pooled connections closed for outliving the idle timeout",
                amount=expired,
            )
            self._dirty = True
        if connection is not None:
            self._inc(
                "pool.connections_reused",
                "Wire calls served over an already-open connection",
            )
            return connection, True
        return self._connect(), False

    def _discard(self, connection: _Connection) -> None:
        """Drop a connection that failed or that the server closed."""
        connection.close()
        self._dirty = True

    # -- calls ----------------------------------------------------------
    def start(
        self, op: str, payload: dict[str, Any] | None = None
    ) -> _PendingCall:
        """Write one request and return without reading the response.

        The pipelining half-call: a coordinator starts a call on every
        node, then :meth:`finish` es them in order — requests overlap
        with remote compute instead of serializing call-and-wait.
        Connection faults are scheduled here (the 1-based call index
        advances per started call, exactly as it did per blocking call).
        A refused call never reaches the peer and leaves the pooled
        connection (if any) untouched.
        """
        fault, plan = self._begin()
        connection, reused = self._acquire()
        request = _request(op, payload)
        if fault == "stall":
            request["_stall_s"] = plan.stall_s
        frame = _encode_message(request)
        wire = frame
        if fault == "garble":
            # Flip one payload bit: the header stays parseable, the CRC
            # check fails server-side.
            damaged = bytearray(frame)
            damaged[FRAME_HEADER.size] ^= 0x01
            wire = bytes(damaged)
        elif fault == "drop":
            # Half a frame, then a close: the server reads a torn frame,
            # this client reads EOF where the response should be.
            wire = frame[:max(1, len(frame) // 2)]
        pending = _PendingCall(op, connection, reused, fault, frame)
        try:
            connection.sock.sendall(wire)
            self._sent(wire)
            if fault == "drop":
                connection.sock.shutdown(socket.SHUT_WR)
        except OSError as error:
            self._discard(connection)
            if not reused or fault is not None:
                raise self._fail("dropped", str(error)) from error
            # The pooled socket died between calls; one transparent
            # reconnect-and-resend (the request never reached the peer,
            # so the retry is safe and exact).
            self._resend(pending)
        return pending

    def finish(self, pending: _PendingCall) -> Any:
        """Read one started call's response; recycle the connection."""
        connection = pending.connection
        try:
            message = self._read(connection.rfile)
        except _READ_ERRORS as error:
            self._discard(connection)
            lost = not isinstance(error, (socket.timeout, FrameError))
            if lost and pending.reused and pending.fault is None:
                # The pooled socket died between calls: resend once.
                self._resend(pending)
                return self.finish(pending)
            raise self._read_error(error, "response") from error
        except MalformedPayload:
            self._discard(connection)
            raise
        if message.get("kind") == "garbled":
            # The server closes the connection after rejecting a frame;
            # reusing it would read EOF on the next call.
            self._discard(connection)
        else:
            # Back to the pool; a full pool closes it, which is no loss
            # for a healthy connection, so no dirty flag.
            self.pool.checkin(connection)
        return self._result(message)

    def _resend(self, pending: _PendingCall) -> None:
        """Send ``pending``'s request again on a fresh connection."""
        connection = self._connect()
        try:
            connection.sock.sendall(pending.frame)
            self._sent(pending.frame)
        except OSError as error:
            self._discard(connection)
            raise self._fail("dropped", str(error)) from error
        pending.connection = connection
        pending.reused = False

    # ------------------------------------------------------------------
    def _read(self, rfile: Any) -> dict[str, Any]:
        """The next reply message (``EOFError`` on a clean close)."""
        payload = read_frame(rfile)
        if payload is None:
            raise EOFError("connection closed")
        self._inc(
            "transport.bytes_received", "Payload bytes read from the wire",
            amount=len(payload),
        )
        try:
            message = json.loads(payload.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is a ValueError too
            message = None
        if not isinstance(message, dict):
            self._inc("transport.errors", "Wire calls that failed")
            raise MalformedPayload(f"reply from {self.address} is not a JSON object")
        return message

    def _read_error(self, error: BaseException, what: str) -> TransportError:
        """The :class:`TransportError` for a failed :meth:`_read`."""
        if isinstance(error, socket.timeout):
            return self._fail("stalled", f"no {what} within {self.timeout_s}s")
        kind = "garbled" if isinstance(error, FrameError) else "dropped"
        return self._fail(kind, f"{what}: {error}")

    def _handshake(self, sock: socket.socket, rfile: Any) -> None:
        hello = _encode_message({"op": "hello", "proto": self.proto})
        sock.sendall(hello)
        self._sent(hello)
        try:
            message = self._read(rfile)
        except _READ_ERRORS as error:
            raise self._read_error(error, "handshake") from error
        if not message.get("ok") or message.get("proto") != self.proto:
            self._inc("transport.errors", "Wire calls that failed")
            raise HandshakeFailed(self.address, str(message.get(
                "error", f"server answered protocol {message.get('proto')!r}"
            )))
        self._inc("transport.handshakes", "Versioned handshakes completed")


# ----------------------------------------------------------------------
# Data node (the coordinator-facing adapter)
# ----------------------------------------------------------------------
class RemoteDataNode:
    """The coordinator's view of one data node.

    Holds the node's shard and liveness flag, and runs Phase 1 and
    Phase 3 distances on the shard node behind ``client`` (a
    :class:`TransportClient` or an :class:`InProcessClient`), each call
    split into ``start_*`` / ``finish_*`` halves for pipelining.
    ``kill`` marks this *stub* dead; a shard process lives on its own.
    """

    def __init__(self, node_id: int, client: _NodeClient) -> None:
        self.node_id = node_id
        self.client = client
        self.healthy = True
        self.trajectories: list[Trajectory] = []

    def ingest(self, trajectories: Iterable[Trajectory]) -> None:
        self.trajectories.extend(trajectories)

    def kill(self) -> None:
        self.healthy = False

    def revive(self) -> None:
        self.healthy = True

    def ping(self) -> bool:
        """Whether the shard process answers (never raises)."""
        try:
            self.client.call("ping")
            return True
        except Exception:
            return False

    def preprocess_batch(
        self,
        trajectories: Sequence[Trajectory],
        keep_interior_points: bool = False,
    ) -> list[BaseCluster]:
        """Phase 1 over ``trajectories``, executed on the shard node."""
        return self.finish_preprocess(
            self.start_preprocess(trajectories, keep_interior_points)
        )

    def start_preprocess(
        self,
        trajectories: Sequence[Trajectory],
        keep_interior_points: bool = False,
    ) -> _PendingCall:
        """Write a ``preprocess`` request without waiting for the reply.

        The pipelining half of :meth:`preprocess_batch`: the coordinator
        starts Phase 1 on every shard, then collects with
        :meth:`finish_preprocess` — shards compute concurrently instead
        of one-at-a-time behind a blocking call.
        """
        if not self.healthy:
            raise NodeDown(self.node_id)
        return self.client.start(
            "preprocess",
            {
                "trajectories_packed": trajectories_to_packed(trajectories),
                "keep_interior_points": bool(keep_interior_points),
            },
        )

    def finish_preprocess(self, pending: _PendingCall) -> list[BaseCluster]:
        """Collect a started ``preprocess`` call's base clusters.

        Raises:
            MalformedPayload: The reply carries no ``clusters_packed``
                payload (or a malformed one).
        """
        result = self.client.finish(pending)
        if not isinstance(result, dict) or "clusters_packed" not in result:
            raise MalformedPayload("preprocess reply lacks 'clusters_packed'")
        return clusters_from_packed(result["clusters_packed"])

    def start_distances(
        self, groups: Sequence[tuple[int, Sequence[int]]], cutoff: float
    ) -> _PendingCall:
        """Write a ``distances`` request for a span of planned groups.

        One wire call (one fault index, one round trip) packs the span
        as int64 ``sources``, ``counts`` and back-to-back ``targets``.
        """
        if not self.healthy:
            raise NodeDown(self.node_id)
        sources, counts, targets = array("q"), array("q"), array("q")
        for source, group in groups:
            sources.append(source)
            counts.append(len(group))
            targets.extend(group)
        return self.client.start("distances", {
            "sources": _pack_array(sources), "counts": _pack_array(counts),
            "targets": _pack_array(targets), "cutoff": cutoff,
        })

    def finish_distances(
        self, pending: _PendingCall, groups: Sequence[tuple[int, Sequence[int]]]
    ) -> list[tuple[dict[int, float], int]]:
        """Collect a started call's ``(found, expanded)`` per group.

        ``found`` maps each target settled within the cutoff to its
        distance, as the local kernel's does, so the coordinator files
        shard answers through its own store path.

        Raises:
            MalformedPayload: The reply holds a different number of
                distances than targets or of ``expanded`` counts than
                groups, a negative count, or a distance that is not a
                number >= 0.
        """
        result = self.client.finish(pending)
        expanded = _sized_column(result, "expanded", "q", len(groups))
        distances = _sized_column(
            result, "distances", "d", sum(len(group) for _, group in groups)
        )
        if any(count < 0 for count in expanded):
            raise MalformedPayload("a group reports a negative expanded count")
        if not all(value >= 0 for value in distances):  # NaN-safe
            raise MalformedPayload("a distance is not a number >= 0")
        values = iter(distances)
        return [
            ({t: d for t, d in zip(group, values) if d != math.inf}, settled)
            for (_, group), settled in zip(groups, expanded)
        ]


# ----------------------------------------------------------------------
# Local shard processes
# ----------------------------------------------------------------------
@dataclass
class ShardProcess:
    """One spawned ``repro shard-node`` worker."""

    node_id: int
    process: subprocess.Popen
    host: str
    port: int
    log_path: Path | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


def spawn_local_shards(
    network_path: str | Path,
    count: int,
    work_dir: str | Path | None = None,
    log_dir: str | Path | None = None,
    host: str = "127.0.0.1",
    python: str = sys.executable,
    startup_timeout_s: float = 30.0,
) -> list[ShardProcess]:
    """Start ``count`` shard-node worker processes on ephemeral ports.

    Each worker is ``python -m repro shard-node`` over the saved network
    at ``network_path``; its bound port is read back through a
    ``--port-file`` rendezvous.  On any startup failure every spawned
    process is killed before raising — no orphans.

    Args:
        network_path: A saved road-network JSON (``repro.roadnet.io``).
        count: Worker count.
        work_dir: Directory for port files (a temp dir when omitted).
        log_dir: When given, each worker's stdout+stderr goes to
            ``shard-{i}.log`` there (the CI failure artifact).
        host: Bind address for the workers.
        python: Interpreter to launch (defaults to this one).
        startup_timeout_s: Budget for all workers to report their port.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    base = Path(work_dir) if work_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-shards-")
    )
    base.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src_root
    )

    shards: list[ShardProcess] = []
    handles: list[Any] = []
    try:
        for node_id in range(count):
            port_file = base / f"shard-{node_id}.port"
            port_file.unlink(missing_ok=True)
            log_path = None
            stdout: Any = subprocess.DEVNULL
            if log_dir is not None:
                log_path = Path(log_dir) / f"shard-{node_id}.log"
                log_path.parent.mkdir(parents=True, exist_ok=True)
                stdout = open(log_path, "wb")
                handles.append(stdout)
            process = subprocess.Popen(
                [
                    python, "-m", "repro", "shard-node",
                    "--network", str(network_path),
                    "--node-id", str(node_id),
                    "--host", host,
                    "--port", "0",
                    "--port-file", str(port_file),
                ],
                stdout=stdout,
                stderr=subprocess.STDOUT if log_dir is not None else subprocess.DEVNULL,
                env=env,
            )
            shards.append(ShardProcess(node_id, process, host, 0, log_path))

        deadline = time.monotonic() + startup_timeout_s
        for node_id, shard in enumerate(shards):
            port_file = base / f"shard-{node_id}.port"
            while True:
                text = ""
                if port_file.exists():
                    text = port_file.read_text(encoding="utf-8").strip()
                if text:
                    shard.port = int(text)
                    break
                if shard.process.poll() is not None:
                    raise TransportError(
                        f"{host}:?", "refused",
                        f"shard {node_id} exited with "
                        f"{shard.process.returncode} before binding",
                    )
                if time.monotonic() > deadline:
                    log_hint = (
                        f"; its log is {shard.log_path}"
                        if shard.log_path is not None
                        else ""
                    )
                    raise TransportError(
                        f"{host}:?", "stalled",
                        f"shard {node_id} (pid {shard.process.pid}, still "
                        f"running) never wrote its port file {port_file} "
                        f"within startup_timeout_s={startup_timeout_s}s"
                        f"{log_hint}",
                    )
                time.sleep(0.05)
        # Write pid files after the rendezvous so a supervisor (or a
        # chaos test) can deliver real signals to a specific shard.
        for shard in shards:
            (base / f"shard-{shard.node_id}.pid").write_text(
                f"{shard.process.pid}\n", encoding="utf-8"
            )
    except BaseException:
        stop_shards(shards)
        for handle in handles:
            handle.close()
        raise
    for handle in handles:
        handle.close()
    return shards


def stop_shards(shards: Iterable[ShardProcess], grace_s: float = 5.0) -> None:
    """Terminate shard processes: polite shutdown op, then SIGKILL."""
    shards = list(shards)
    for shard in shards:
        if not shard.alive:
            continue
        try:
            TransportClient(shard.host, shard.port, timeout_s=1.0).call("shutdown")
        except Exception:
            pass
    deadline = time.monotonic() + grace_s
    for shard in shards:
        if not shard.alive:
            continue
        shard.process.terminate()
    for shard in shards:
        try:
            shard.process.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            shard.process.kill()
            shard.process.wait()
