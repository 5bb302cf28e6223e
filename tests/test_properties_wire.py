"""Property-based fuzz tests (hypothesis) for the shard wire codec.

The packed decoders take untrusted columns: the frame CRC proves only
that a payload arrived as it was sent, not that its encoder was sound.
Starting from the packed encoding of random valid inputs, each example
perturbs one count or data column (one item changed, inserted or
removed) and re-packs it canonically.  The decoder must then either
raise a typed error — :class:`~repro.errors.MalformedPayload`, or
:class:`~repro.errors.TrajectoryError` where a trajectory invariant
breaks — or return objects whose re-encoding is exactly the perturbed
payload: nothing in between, and nothing silently dropped or invented.

The frame codec gets the matching byte-level properties: a truncated
frame raises :class:`TornFrame`, and any flipped byte is a typed error.

The ``distances`` payloads are fuzzed from both ends too: a request with
one column perturbed (or missing, or not base64, or a bad cutoff) gets a
typed ``ok: false`` / ``protocol`` reply or exactly the kernels' answer
for the groups its columns spell; a reply with one column perturbed makes
the client raise :class:`~repro.errors.MalformedPayload` or decodes to
results that re-encode to exactly that reply.

The hello handshake is fuzzed from both ends: any JSON value sent as the
hello gets a typed ``ok: false`` reply or completes the handshake, and
the server goes on serving; any JSON value (or non-JSON bytes) returned
as the reply makes the client raise a typed
:class:`~repro.errors.TransportError` or completes the handshake.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from array import array

from repro.core.base_cluster import BaseCluster
from repro.core.model import Location, TFragment, Trajectory
from repro.distributed.transport import (
    PROTOCOL_VERSION,
    FrameError,
    RemoteDataNode,
    ShardNode,
    ShardNodeServer,
    TornFrame,
    TransportClient,
    _pack_array,
    _unpack_array,
    clusters_from_packed,
    clusters_to_packed,
    decode_frame,
    encode_frame,
    read_frame,
    trajectories_from_packed,
    trajectories_to_packed,
)
from repro.errors import MalformedPayload, TrajectoryError, TransportError
from repro.roadnet.builder import line_network

from conftest import ReplyClient, distances_payload

#: Item type of every packed column, both schemas.
TYPECODES = {
    "trids": "q", "counts": "I", "sids": "q", "nodes": "q",
    "xs": "d", "ys": "d", "ts": "d", "cluster_sids": "q",
    "fragment_counts": "I", "fragment_trids": "q", "location_counts": "I",
}
#: Item type of every ``distances`` column, request and reply.
DISTANCE_TYPECODES = {
    "sources": "q", "counts": "q", "targets": "q",
    "distances": "d", "expanded": "q",
}

coordinates = st.floats(-1e6, 1e6, allow_nan=False)
node_ids = st.one_of(st.none(), st.integers(0, 1000))


@st.composite
def trajectory_lists(draw):
    trajectories = []
    for trid in draw(st.lists(st.integers(0, 10_000), max_size=4, unique=True)):
        samples = draw(st.lists(
            st.tuples(
                st.integers(0, 50), coordinates, coordinates,
                st.floats(0.0, 100.0), node_ids,
            ),
            min_size=2, max_size=5,
        ))
        t = 0.0
        locations = []
        for sid, x, y, dt, node in samples:
            t += dt
            locations.append(Location(sid, x, y, t, node))
        trajectories.append(Trajectory(trid, tuple(locations)))
    return trajectories


@st.composite
def cluster_lists(draw):
    clusters = []
    for sid in draw(st.lists(st.integers(0, 50), max_size=4, unique=True)):
        fragments = []
        for trid in draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=3)):
            samples = draw(st.lists(
                st.tuples(coordinates, coordinates, st.floats(0.0, 1e5), node_ids),
                min_size=1, max_size=4,
            ))
            fragments.append(TFragment(trid, sid, tuple(
                Location(sid, x, y, t, node) for x, y, t, node in samples
            )))
        clusters.append(BaseCluster(sid, fragments))
    return clusters


def _item(typecode: str):
    if typecode == "d":
        return st.floats(allow_nan=True, allow_infinity=True)
    if typecode == "I":
        return st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1))
    return st.one_of(st.integers(-2, 8), st.integers(-(2**63), 2**63 - 1))


@st.composite
def perturbed(
    draw, payload: dict[str, str], typecodes: dict[str, str] = TYPECODES
) -> dict[str, str]:
    """``payload`` with one item of one column changed, added or removed."""
    column = draw(st.sampled_from(sorted(typecodes.keys() & payload.keys())))
    typecode = typecodes[column]
    values = _unpack_array(payload, column, typecode)
    edits = ["insert"] + (["set", "nudge", "delete"] if values else [])
    edit = draw(st.sampled_from(edits))
    index = draw(st.integers(0, max(0, len(values) - (edit != "insert"))))
    if edit == "insert":
        values.insert(index, draw(_item(typecode)))
    elif edit == "delete":
        del values[index]
    elif edit == "set":
        values[index] = draw(_item(typecode))
    elif typecode == "d":
        values[index] = -values[index] if values[index] else 1.0
    else:
        step = draw(st.sampled_from([-1, 1]))
        low, high = (0, 2**32 - 1) if typecode == "I" else (-(2**63), 2**63 - 1)
        values[index] = min(high, max(low, values[index] + step))
    return {**payload, column: _pack_array(values)}


def assert_decodes_canonically(decode, encode, payload) -> None:
    try:
        decoded = decode(payload)
    except (MalformedPayload, TrajectoryError):
        return
    assert encode(decoded) == payload


class TestPackedTrajectories:
    @given(trajectory_lists())
    def test_round_trip(self, trajectories):
        payload = trajectories_to_packed(trajectories)
        decoded = trajectories_from_packed(payload)
        assert decoded == trajectories
        assert trajectories_to_packed(decoded) == payload

    @settings(max_examples=300)
    @given(st.data())
    def test_one_perturbed_column_is_typed_or_exact(self, data):
        payload = trajectories_to_packed(data.draw(trajectory_lists()))
        assert_decodes_canonically(
            trajectories_from_packed, trajectories_to_packed,
            data.draw(perturbed(payload)),
        )


class TestPackedClusters:
    @given(cluster_lists())
    def test_round_trip(self, clusters):
        payload = clusters_to_packed(clusters)
        decoded = clusters_from_packed(payload)
        assert [c.sid for c in decoded] == [c.sid for c in clusters]
        assert [c.fragments for c in decoded] == [c.fragments for c in clusters]
        assert clusters_to_packed(decoded) == payload

    @settings(max_examples=300)
    @given(st.data())
    def test_one_perturbed_column_is_typed_or_exact(self, data):
        payload = clusters_to_packed(data.draw(cluster_lists()))
        assert_decodes_canonically(
            clusters_from_packed, clusters_to_packed,
            data.draw(perturbed(payload)),
        )


class TestFrames:
    @given(st.binary(max_size=64))
    def test_round_trip(self, payload):
        assert decode_frame(encode_frame(payload)) == payload

    @given(st.binary(max_size=64), st.data())
    def test_truncation_is_torn(self, payload, data):
        frame = encode_frame(payload)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(TornFrame):
            decode_frame(frame[:cut])

    @given(st.binary(max_size=64), st.data())
    def test_flipped_byte_is_typed(self, payload, data):
        frame = bytearray(encode_frame(payload))
        offset = data.draw(st.integers(0, len(frame) - 1))
        frame[offset] ^= data.draw(st.integers(1, 255))
        # The header is magic | length | crc32.  The length field (bytes
        # 4-7) is the one place a flip can make the frame claim more
        # bytes than arrived: that reads as torn.
        in_length = 4 <= offset < 8
        with pytest.raises((FrameError, TornFrame) if in_length else FrameError):
            decode_frame(bytes(frame))


#: Groups on the line network (junctions 0..3), distinct targets each,
#: as the planner emits them.
groups_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.lists(st.integers(0, 3), max_size=3, unique=True).map(tuple),
    ),
    max_size=4,
)
cutoffs = st.floats(0.0, 400.0)


def _columns(payload: dict, *names: str) -> list[array]:
    return [_unpack_array(payload, name, DISTANCE_TYPECODES[name]) for name in names]


def _answer(graph, groups, cutoff) -> dict:
    """The reply the shard owes ``groups``: the kernels' own answers."""
    distances, expanded = array("d"), array("q")
    for source, group in groups:
        found, settled = graph.multi_target_distances(source, group, cutoff)
        distances.extend(found.get(target, float("inf")) for target in group)
        expanded.append(settled)
    return {"distances": _pack_array(distances), "expanded": _pack_array(expanded)}


@st.composite
def damaged_requests(draw):
    payload = distances_payload(draw(groups_strategy), draw(cutoffs))
    damage = draw(st.sampled_from(["column", "drop", "text", "cutoff"]))
    if damage == "column":
        return draw(perturbed(payload, DISTANCE_TYPECODES))
    name = draw(st.sampled_from(["sources", "counts", "targets"]))
    if damage == "drop":
        del payload[name]
    elif damage == "text":
        payload[name] = draw(st.text(max_size=6))
    else:
        payload["cutoff"] = draw(st.one_of(
            st.floats(), st.none(), st.booleans(), st.text(max_size=3),
            st.integers(-5, 5),
        ))
    return payload


class TestDistancesPayloads:
    network = line_network(3)

    @settings(max_examples=300, deadline=None)
    @given(damaged_requests())
    def test_any_request_is_typed_or_exact(self, payload):
        reply, action = ShardNode(self.network).execute(
            {"op": "distances", "payload": payload}
        )
        assert action == "keep"
        if not reply["ok"]:
            assert reply["kind"] == "protocol"
            return
        sources, counts, targets = _columns(payload, "sources", "counts", "targets")
        groups, offset = [], 0
        for source, count in zip(sources, counts):
            groups.append((source, tuple(targets[offset:offset + count])))
            offset += count
        assert offset == len(targets) and len(counts) == len(sources)
        assert reply["result"] == _answer(
            self.network.csr(False), groups, payload["cutoff"]
        )

    @settings(max_examples=300, deadline=None)
    @given(groups_strategy, cutoffs, st.data())
    def test_any_reply_is_typed_or_exact(self, groups, cutoff, data):
        reply = _answer(self.network.csr(False), groups, cutoff)
        damage = data.draw(st.sampled_from(["column", "drop", "value"]))
        if damage == "column":
            reply = data.draw(perturbed(reply, DISTANCE_TYPECODES))
        elif damage == "drop":
            del reply[data.draw(st.sampled_from(sorted(reply)))]
        else:
            reply = data.draw(json_values)
        node = RemoteDataNode(0, ReplyClient(reply))
        try:
            results = node.finish_distances(node.start_distances(groups, cutoff), groups)
        except MalformedPayload:
            return
        distances, expanded = array("d"), array("q")
        for (_, group), (found, settled) in zip(groups, results):
            distances.extend(found.get(target, float("inf")) for target in group)
            expanded.append(settled)
        assert len(results) == len(groups)
        assert reply == {
            "distances": _pack_array(distances), "expanded": _pack_array(expanded),
        }


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
#: Hello-shaped objects, so the fuzzer reaches the version checks.
protos = st.one_of(st.just(PROTOCOL_VERSION), json_values)
hellos = st.one_of(
    json_values,
    st.fixed_dictionaries({"op": st.sampled_from(["hello", "ping"]), "proto": protos}),
)
hello_replies = st.one_of(
    json_values,
    st.fixed_dictionaries({"ok": json_values, "proto": protos}),
    st.fixed_dictionaries({"ok": st.just(True), "proto": protos}),
)


@pytest.fixture(scope="module")
def hello_server():
    server = ShardNodeServer(line_network(3), node_id=0).start()
    yield server
    server.stop()


class TestHelloHandshake:
    @settings(max_examples=60, deadline=None)
    @given(hellos)
    def test_any_hello_is_typed_or_completes(self, hello_server, hello):
        with socket.create_connection(
            (hello_server.host, hello_server.port), timeout=5.0
        ) as sock:
            sock.sendall(encode_frame(json.dumps(hello).encode("utf-8")))
            with sock.makefile("rb") as rfile:
                reply = json.loads(read_frame(rfile))
        completed = (
            isinstance(hello, dict)
            and hello.get("op") == "hello"
            and hello.get("proto") == PROTOCOL_VERSION
        )
        if completed:
            assert reply["ok"] is True and reply["proto"] == PROTOCOL_VERSION
        else:
            assert reply["ok"] is False
            assert reply["kind"] in ("handshake", "protocol")
        # The server goes on serving the next connection.
        client = TransportClient(hello_server.host, hello_server.port)
        try:
            assert client.call("ping") == {"node_id": 0}
        finally:
            client.close()

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        hello_replies.map(lambda reply: json.dumps(reply).encode("utf-8")),
        st.binary(max_size=8),
    ))
    def test_any_hello_reply_is_typed_or_completes(self, payload):
        client = TransportClient("127.0.0.1", 1, timeout_s=5.0)
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(encode_frame(payload))
            with ours.makefile("rb") as rfile:
                try:
                    client._handshake(ours, rfile)
                except TransportError:
                    return
            reply = json.loads(payload)
            assert reply["ok"] and reply["proto"] == PROTOCOL_VERSION
            with theirs.makefile("rb") as sent:
                assert json.loads(read_frame(sent)) == {
                    "op": "hello", "proto": PROTOCOL_VERSION,
                }
        finally:
            ours.close()
            theirs.close()

