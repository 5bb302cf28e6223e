"""Tests for repro.distributed.transport: the framed TCP wire protocol.

Covers the frame codec (roundtrip, bad magic, bad CRC, absurd length),
the versioned handshake, the four RPCs against an in-process
:class:`ShardNodeServer`, all four scheduled connection faults
(refuse / drop / stall / garble) at deterministic 1-based call indexes,
retry recovery across faults, the determinism of the ``transport.*``
counters under identical chaos schedules, and byte-identity of a
remote-node coordinator run against the serial pipeline.
"""

from __future__ import annotations

import io

import pytest

from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.distributed import (
    InProcessClient,
    NeatCoordinator,
    RegionShardMap,
    RemoteDataNode,
    ShardNode,
    ShardNodeServer,
    TransportClient,
)
from repro.distributed.transport import (
    FRAME_HEADER,
    FRAME_MAGIC,
    FrameError,
    TornFrame,
    clusters_from_packed,
    decode_frame,
    encode_frame,
    read_frame,
    trajectories_to_packed,
)
from repro.errors import HandshakeFailed, NodeDown, TransportError
from repro.obs import Telemetry
from repro.persist.store import encode_frame as encode_journal_frame
from repro.resilience import FaultInjector, FaultPlan

from conftest import trajectory_through, wire_document


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        for payload in (b"", b"x", b'{"op": "ping"}', bytes(range(256))):
            assert decode_frame(encode_frame(payload)) == payload

    @pytest.mark.parametrize("encode, expected", [
        (encode_frame, "52505731" "0000000d" "f369e448"),
        (encode_journal_frame, "52504631" "0000000d" "f369e448"),
    ])
    def test_frame_bytes_are_pinned(self, encode, expected):
        # Wire (RPW1) and journal (RPF1) frames share one codec: only the
        # magic differs, and neither may drift.
        payload = b'{"op":"ping"}'
        assert encode(payload).hex() == expected + payload.hex()

    def test_read_frame_stream(self):
        stream = io.BytesIO(encode_frame(b"one") + encode_frame(b"two"))
        assert read_frame(stream) == b"one"
        assert read_frame(stream) == b"two"
        assert read_frame(stream) is None  # clean EOF at a boundary

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(b"payload"))
        frame[:4] = b"NOPE"
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(bytes(frame)))

    def test_bad_crc_rejected(self):
        frame = bytearray(encode_frame(b"payload"))
        frame[FRAME_HEADER.size] ^= 0x01  # flip one payload bit
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_torn_frame_detected(self):
        frame = encode_frame(b"a longer payload than the cut")
        for cut in (1, FRAME_HEADER.size - 1, FRAME_HEADER.size + 3):
            with pytest.raises(TornFrame):
                read_frame(io.BytesIO(frame[:cut]))

    def test_absurd_length_rejected(self):
        header = FRAME_HEADER.pack(FRAME_MAGIC, 2**31, 0)
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(header + b"x" * 64))


# ----------------------------------------------------------------------
# RPCs against a live in-process server
# ----------------------------------------------------------------------
@pytest.fixture
def shard(line3):
    server = ShardNodeServer(line3, node_id=0).start()
    yield server
    server.stop()


class TestShardRPC:
    def test_ping(self, shard):
        client = TransportClient(shard.host, shard.port)
        assert client.call("ping") == {"node_id": 0}

    def test_preprocess_matches_local(self, line3, shard):
        from repro.core.base_cluster import form_base_clusters

        trajectories = [trajectory_through(line3, i, [0, 1, 2]) for i in range(5)]
        client = TransportClient(shard.host, shard.port)
        result = client.call(
            "preprocess",
            {"trajectories_packed": trajectories_to_packed(trajectories),
             "keep_interior_points": False},
        )
        remote = clusters_from_packed(result["clusters_packed"])
        local = form_base_clusters(line3, trajectories)
        assert [c.sid for c in remote] == [c.sid for c in local]
        assert [c.fragments for c in remote] == [c.fragments for c in local]

    @pytest.mark.parametrize("payload", [
        {},
        {"trajectories_pakced": trajectories_to_packed([])},
        {"trajectories": []},
    ])
    def test_preprocess_without_packed_input_is_rejected(self, shard, payload):
        """A missing (or misspelled) input key must never read as an
        empty shard: the reply is a protocol error naming the key."""
        client = TransportClient(shard.host, shard.port)
        try:
            with pytest.raises(TransportError) as excinfo:
                client.call("preprocess", payload)
            # The connection survives the rejected request.
            assert client.call("ping") == {"node_id": 0}
        finally:
            client.close()
        assert excinfo.value.kind == "protocol"
        assert "trajectories_packed" in str(excinfo.value)
        assert shard.preprocess_calls == 0

    def test_stats_counts_requests(self, line3, shard):
        client = TransportClient(shard.host, shard.port)
        client.call("ping")
        stats = client.call("stats")
        assert stats["node_id"] == 0
        assert stats["requests"] >= 2
        assert stats["bad_frames"] == 0

    def test_unknown_op_is_protocol_error(self, shard):
        client = TransportClient(shard.host, shard.port)
        with pytest.raises(TransportError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.kind == "protocol"

    def test_handshake_version_mismatch(self, shard):
        client = TransportClient(shard.host, shard.port, proto=99)
        with pytest.raises(HandshakeFailed):
            client.call("ping")
        # The server survives a rejected hello and keeps serving.
        assert TransportClient(shard.host, shard.port).call("ping") == {"node_id": 0}

    def test_shutdown_rpc_stops_server(self, line3):
        server = ShardNodeServer(line3, node_id=3).start()
        client = TransportClient(server.host, server.port)
        assert client.call("shutdown") == {"stopping": True}
        assert server._shutdown_requested.wait(timeout=5.0)
        server.stop()

    def test_connect_to_dead_server_is_refused(self, line3):
        server = ShardNodeServer(line3, node_id=1).start()
        host, port = server.host, server.port
        server.stop()
        client = TransportClient(host, port, timeout_s=1.0)
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "refused"


# ----------------------------------------------------------------------
# Scheduled connection faults — organic, deterministic, counted
# ----------------------------------------------------------------------
def chaos_client(shard, plan: FaultPlan, metrics=None, timeout_s: float = 5.0,
                 in_process: bool = False):
    faults = FaultInjector()
    faults.arm("transport.node0", plan)
    if in_process:  # the same shard's ops, without the socket
        node = ShardNode(shard.network)
        return InProcessClient(node, faults, "transport.node0"), faults
    return TransportClient(
        shard.host, shard.port, timeout_s=timeout_s,
        faults=faults, fault_operation="transport.node0", metrics=metrics,
    ), faults


class TestConnectionFaults:
    def test_refuse_at_exact_index(self, shard):
        client, faults = chaos_client(shard, FaultPlan(refuse_nth=2))
        assert client.call("ping") == {"node_id": 0}
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "refused"
        assert client.call("ping") == {"node_id": 0}  # 3rd call clean
        assert faults.wrapper("transport.node0").injected_failures == 1

    def test_drop_mid_message(self, shard):
        client, _ = chaos_client(shard, FaultPlan(drop_nth=1))
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "dropped"
        # The server saw a torn frame, counted it, and kept serving.
        stats = TransportClient(shard.host, shard.port).call("stats")
        assert stats["torn_frames"] == 1
        assert client.call("ping") == {"node_id": 0}

    def test_stall_past_deadline(self, shard):
        client, _ = chaos_client(
            shard, FaultPlan(stall_nth=1, stall_s=2.0), timeout_s=0.3
        )
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "stalled"
        assert client.call("ping") == {"node_id": 0}

    def test_garbled_frame_rejected_by_crc(self, shard):
        client, _ = chaos_client(shard, FaultPlan(garble_nth=1))
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "garbled"
        stats = TransportClient(shard.host, shard.port).call("stats")
        assert stats["bad_frames"] == 1
        assert client.call("ping") == {"node_id": 0}

    def test_chaos_counters_deterministic_across_runs(self, shard):
        plan = FaultPlan(refuse_nth=1, drop_nth=3, stall_nth=5,
                         garble_nth=7, stall_s=2.0)

        def outcomes(client) -> list[str]:
            kinds = []
            for _ in range(8):
                try:
                    client.call("ping")
                    kinds.append("ok")
                except TransportError as error:
                    kinds.append(error.kind)
            return kinds

        def run_schedule() -> dict[str, float]:
            telemetry = Telemetry.create()
            client, _ = chaos_client(
                shard, plan, metrics=telemetry.metrics, timeout_s=0.3
            )
            kinds = outcomes(client)
            counters = {
                inst.name: inst.value
                for inst in telemetry.metrics if inst.kind == "counter"
            }
            return kinds, counters

        first_outcomes, first = run_schedule()
        second_outcomes, second = run_schedule()
        assert first_outcomes == [
            "refused", "ok", "dropped", "ok", "stalled", "ok", "garbled", "ok",
        ]
        assert first_outcomes == second_outcomes
        # The in-process client raises the same kinds at the same calls.
        local, _ = chaos_client(shard, plan, in_process=True)
        assert outcomes(local) == first_outcomes
        assert first == second
        assert first["transport.requests"] == 8
        assert first["transport.errors"] == 4
        for kind in ("refused", "dropped", "stalled", "garbled"):
            assert first[f"transport.{kind}"] == 1


# ----------------------------------------------------------------------
# The coordinator over remote nodes
# ----------------------------------------------------------------------
class TestRemoteCoordinator:
    def test_remote_node_duck_types(self, line3, shard):
        node = RemoteDataNode(0, TransportClient(shard.host, shard.port))
        assert node.ping()
        node.kill()
        with pytest.raises(NodeDown):
            node.preprocess_batch([])
        node.revive()
        assert node.preprocess_batch([]) == []

    @pytest.mark.parametrize("wire", ["tcp", "in-process"])
    def test_refused_node_gets_max_retries_plus_one_calls(
        self, line3, shard, wire
    ):
        # The pipelined first attempt is the retry policy's first
        # attempt: max_retries=2 means 3 calls and 2 retries in total.
        client, _ = chaos_client(
            shard, FaultPlan(refuse_nth=range(1, 10)),
            in_process=wire == "in-process",
        )
        telemetry = Telemetry.create()
        coordinator = NeatCoordinator(
            line3, NEATConfig(min_card=0, max_retries=2),
            nodes=[RemoteDataNode(0, client)], telemetry=telemetry,
        )
        result = coordinator.run(
            [trajectory_through(line3, 0, [0, 1, 2])], mode="base"
        )
        assert result.dropped_shards == [0]
        assert client.calls == 3
        assert telemetry.metrics.value("resilience.retries") == 2
        assert telemetry.metrics.value("resilience.node_failures") == 1

    def test_remote_run_byte_identical_to_serial(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        serial = NEAT(network, NEATConfig()).run(trajectories, mode="opt")
        reference = wire_document(serial, network)

        servers = [ShardNodeServer(network, node_id=i).start() for i in range(3)]
        try:
            nodes = [
                RemoteDataNode(i, TransportClient(s.host, s.port))
                for i, s in enumerate(servers)
            ]
            coordinator = NeatCoordinator(
                network, NEATConfig(), nodes=nodes,
                shardmap=RegionShardMap(network, [0, 1, 2]),
            )
            result = coordinator.run(trajectories, mode="opt")
            document = wire_document(result, network)
        finally:
            for server in servers:
                server.stop()
        assert document == reference

    def test_remote_run_with_retryable_faults_still_identical(
        self, small_workload
    ):
        network, dataset = small_workload
        trajectories = list(dataset)
        serial = NEAT(network, NEATConfig()).run(trajectories, mode="opt")
        reference = wire_document(serial, network)

        faults = FaultInjector()
        faults.arm("transport.node0", FaultPlan(refuse_nth=1))
        faults.arm("transport.node1", FaultPlan(garble_nth=1))
        servers = [ShardNodeServer(network, node_id=i).start() for i in range(2)]
        try:
            nodes = [
                RemoteDataNode(i, TransportClient(
                    s.host, s.port, faults=faults,
                    fault_operation=f"transport.node{i}",
                ))
                for i, s in enumerate(servers)
            ]
            coordinator = NeatCoordinator(
                network, NEATConfig(), nodes=nodes,
                shardmap=RegionShardMap(network, [0, 1]),
            )
            result = coordinator.run(trajectories, mode="opt")
            document = wire_document(result, network)
        finally:
            for server in servers:
                server.stop()
        assert document == reference
        assert result.dropped_shards == []
