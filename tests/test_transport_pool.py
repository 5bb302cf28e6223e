"""Tests for the persistent-connection layer of the distributed tier.

Covers the :class:`ConnectionPool` itself (LIFO reuse, the size cap,
idle expiry), the handshake-once guarantee of pooled
:class:`TransportClient` s, the exactly-one-reconnect recovery when the
server closes a pooled socket between calls, the determinism of
injected refuse/drop/stall/garble faults on pooled connections (same
1-based indexes as an unpooled client, no transparent retry of a
faulted call), the packed columnar wire schema, the shard-side
``distances`` op (packed group spans) against the local kernels and its
typed errors, byte-identity of a pooled remote-Phase-3 coordinator run,
and the spawn rendezvous timeout error.
"""

from __future__ import annotations

import base64
import io
import time
import tracemalloc
from array import array

import pytest

from repro.core.base_cluster import form_base_clusters
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.distributed import (
    ConnectionPool,
    NeatCoordinator,
    RegionShardMap,
    RemoteDataNode,
    ShardNodeServer,
    TransportClient,
    spawn_local_shards,
)
from repro.distributed.transport import (
    ShardNode,
    _Connection,
    _pack_array,
    clusters_from_packed,
    clusters_to_packed,
    trajectories_from_packed,
    trajectories_to_packed,
)
from repro.errors import MalformedPayload, TransportError
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultPlan
from repro.roadnet.io import save_network

from conftest import (
    ReplyClient,
    distances_payload,
    trajectory_through,
    wire_document,
)


@pytest.fixture
def shard(line3):
    server = ShardNodeServer(line3, node_id=0).start()
    yield server
    server.stop()


class _FakeSock:
    """Just enough socket for :class:`_Connection` unit tests."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _fake_connection() -> _Connection:
    return _Connection(_FakeSock(), io.BytesIO())


# ----------------------------------------------------------------------
# ConnectionPool (unit)
# ----------------------------------------------------------------------
class TestConnectionPool:
    def test_empty_checkout(self):
        assert ConnectionPool(size=2).checkout() == (None, 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConnectionPool(size=-1)
        with pytest.raises(ValueError):
            ConnectionPool(size=1, idle_timeout_s=0.0)

    def test_lifo_reuse(self):
        pool = ConnectionPool(size=2)
        first, second = _fake_connection(), _fake_connection()
        assert pool.checkin(first)
        assert pool.checkin(second)
        # Most recently used first: its socket is the least likely to
        # have been reaped while idle.
        assert pool.checkout() == (second, 0)
        assert pool.checkout() == (first, 0)
        assert pool.checkout() == (None, 0)

    def test_size_cap_closes_surplus(self):
        pool = ConnectionPool(size=1)
        kept, surplus = _fake_connection(), _fake_connection()
        assert pool.checkin(kept)
        assert not pool.checkin(surplus)
        assert surplus.sock.closed
        assert not kept.sock.closed
        assert len(pool) == 1

    def test_size_zero_disables_pooling(self):
        pool = ConnectionPool(size=0)
        connection = _fake_connection()
        assert not pool.checkin(connection)
        assert connection.sock.closed

    def test_idle_expiry_counted(self):
        pool = ConnectionPool(size=2, idle_timeout_s=0.05)
        stale = _fake_connection()
        pool.checkin(stale)
        time.sleep(0.08)
        assert pool.checkout() == (None, 1)
        assert stale.sock.closed

    def test_close_all(self):
        pool = ConnectionPool(size=2)
        connections = [_fake_connection(), _fake_connection()]
        for connection in connections:
            pool.checkin(connection)
        pool.close_all()
        assert len(pool) == 0
        assert all(c.sock.closed for c in connections)


# ----------------------------------------------------------------------
# Persistent connections
# ----------------------------------------------------------------------
class TestPersistentConnections:
    def test_handshake_once_across_calls(self, shard):
        telemetry = Telemetry()
        client = TransportClient(
            shard.host, shard.port, metrics=telemetry.metrics, pool_size=1
        )
        for _ in range(5):
            assert client.call("ping") == {"node_id": 0}
        stats = client.call("stats")
        client.close()
        metrics = telemetry.metrics
        assert metrics.value("transport.handshakes") == 1
        assert metrics.value("pool.connections_opened") == 1
        assert metrics.value("pool.connections_reused") == 5
        assert metrics.value("transport.reconnects") == 0
        # The server agrees: six calls, one TCP connection.
        assert stats["connections"] == 1

    def test_pool_size_zero_is_pre_pool_behavior(self, shard):
        telemetry = Telemetry()
        client = TransportClient(
            shard.host, shard.port, metrics=telemetry.metrics, pool_size=0
        )
        for _ in range(3):
            client.call("ping")
        client.close()
        metrics = telemetry.metrics
        assert metrics.value("transport.handshakes") == 3
        assert metrics.value("pool.connections_opened") == 3
        assert metrics.value("pool.connections_reused") == 0

    def test_server_close_mid_pool_reconnects_exactly_once(self, shard):
        telemetry = Telemetry()
        client = TransportClient(
            shard.host, shard.port, metrics=telemetry.metrics, pool_size=1
        )
        client.call("ping")
        # ``reset`` replies, then the *server* closes the connection;
        # the pooled socket is now dead without the client knowing.
        assert client.call("reset") == {"closing": True}
        # The next reuse discovers the close and recovers with exactly
        # one reconnect — transparently, because the request never
        # reached the peer.
        assert client.call("ping") == {"node_id": 0}
        assert telemetry.metrics.value("transport.reconnects") == 1
        # The replacement connection is healthy: further calls reuse it
        # without another reconnect.
        for _ in range(3):
            client.call("ping")
        client.close()
        assert telemetry.metrics.value("transport.reconnects") == 1
        assert telemetry.metrics.value("transport.errors") == 0

    def test_idle_timeout_discards_quiet_sockets(self, shard):
        telemetry = Telemetry()
        client = TransportClient(
            shard.host, shard.port, metrics=telemetry.metrics,
            pool_size=1, idle_timeout_s=0.05,
        )
        client.call("ping")
        time.sleep(0.08)
        client.call("ping")
        client.close()
        metrics = telemetry.metrics
        assert metrics.value("pool.idle_closed") == 1
        assert metrics.value("pool.connections_opened") == 2
        assert metrics.value("pool.connections_reused") == 0


# ----------------------------------------------------------------------
# Fault determinism on pooled connections
# ----------------------------------------------------------------------
def _run_chaos_schedule(shard, pool_size: int) -> tuple[list[str], dict]:
    """Eight pings under refuse@2 / drop@4 / stall@6 / garble@8.

    Returns the per-call outcome list (``"ok"`` or the error kind) and
    the final ``transport.*`` counter values.
    """
    faults = FaultInjector()
    faults.arm(
        "transport.node0",
        FaultPlan(refuse_nth=2, drop_nth=4, stall_nth=6, garble_nth=8),
    )
    telemetry = Telemetry()
    client = TransportClient(
        shard.host, shard.port, timeout_s=0.1,
        faults=faults, fault_operation="transport.node0",
        metrics=telemetry.metrics, pool_size=pool_size,
    )
    outcomes = []
    for _ in range(8):
        try:
            client.call("ping")
            outcomes.append("ok")
        except TransportError as error:
            outcomes.append(error.kind)
    client.close()
    metrics = telemetry.metrics
    counters = {
        name: metrics.value(f"transport.{name}")
        for name in ("requests", "refused", "dropped", "stalled", "garbled")
    }
    return outcomes, counters


class TestPooledFaultDeterminism:
    def test_faults_land_at_same_indexes_pooled_and_unpooled(self, line3):
        # Separate servers so the stall sleep of one run cannot delay
        # the other run's clean calls.
        expected = ["ok", "refused", "ok", "dropped", "ok", "stalled", "ok", "garbled"]
        results = {}
        for pool_size in (0, 2):
            server = ShardNodeServer(line3, node_id=0).start()
            try:
                results[pool_size] = _run_chaos_schedule(server, pool_size)
            finally:
                server.stop()
        for pool_size, (outcomes, counters) in results.items():
            assert outcomes == expected, f"pool_size={pool_size}"
            assert counters["requests"] == 8
            for kind in ("refused", "dropped", "stalled", "garbled"):
                assert counters[kind] == 1, f"pool_size={pool_size} {kind}"
        # Identical chaos schedule, identical wire outcome — pooling
        # changes socket lifetimes, never the fault indexes.
        assert results[0] == results[2]

    def test_faulted_call_never_retries_transparently(self, shard):
        faults = FaultInjector()
        faults.arm("transport.node0", FaultPlan(drop_nth=2))
        client = TransportClient(
            shard.host, shard.port, faults=faults,
            fault_operation="transport.node0", pool_size=1,
        )
        client.call("ping")
        # The dropped call raises instead of silently reconnecting and
        # resending: an injected fault must surface to the retry layer
        # above (which owns the redispatch decision), not vanish.
        with pytest.raises(TransportError) as excinfo:
            client.call("ping")
        assert excinfo.value.kind == "dropped"
        assert faults.wrapper("transport.node0").injected_failures == 1
        client.close()


# ----------------------------------------------------------------------
# Packed columnar wire schema
# ----------------------------------------------------------------------
class TestPackedSchema:
    def test_trajectories_roundtrip_exactly(self, line3):
        trajectories = [
            trajectory_through(line3, trid, [0, 1, 2], t0=float(trid))
            for trid in range(4)
        ]
        decoded = trajectories_from_packed(
            trajectories_to_packed(trajectories)
        )
        assert decoded == trajectories

    def test_clusters_roundtrip_exactly(self, line3):
        trajectories = [
            trajectory_through(line3, trid, [0, 1, 2]) for trid in range(5)
        ]
        # Junction insertion gives some locations a node_id — the
        # packed schema must carry the junction mark through.
        clusters = form_base_clusters(line3, trajectories)
        decoded = clusters_from_packed(clusters_to_packed(clusters))
        assert [c.sid for c in decoded] == [c.sid for c in clusters]
        assert [c.fragments for c in decoded] == [c.fragments for c in clusters]
        assert any(
            location.is_junction
            for cluster in decoded
            for fragment in cluster.fragments
            for location in fragment.locations
        )

    @staticmethod
    def _packed(line3):
        trajectories = [
            trajectory_through(line3, trid, [0, 1, 2]) for trid in range(5)
        ]
        return (
            trajectories_to_packed(trajectories),
            clusters_to_packed(form_base_clusters(line3, trajectories)),
        )

    #: Item type of every packed column, both schemas.
    TYPECODES = {
        "trids": "q", "counts": "I", "sids": "q", "nodes": "q",
        "xs": "d", "ys": "d", "ts": "d", "cluster_sids": "q",
        "fragment_counts": "I", "fragment_trids": "q", "location_counts": "I",
    }

    @classmethod
    def _shorten(cls, payload, column):
        """``payload`` with the last item cut off ``column``."""
        values = array(cls.TYPECODES[column])
        values.frombytes(base64.b64decode(payload[column]))
        return {
            **payload,
            column: base64.b64encode(values[:-1].tobytes()).decode("ascii"),
        }

    @pytest.mark.parametrize("column", ["sids", "xs", "ys", "ts", "nodes"])
    def test_short_trajectory_column_is_typed(self, line3, column):
        trajectories, _ = self._packed(line3)
        with pytest.raises(MalformedPayload, match=column):
            trajectories_from_packed(self._shorten(trajectories, column))

    @pytest.mark.parametrize("column", ["trids", "counts"])
    def test_counts_disagreeing_with_trids_is_typed(self, line3, column):
        trajectories, _ = self._packed(line3)
        with pytest.raises(MalformedPayload, match="counts"):
            trajectories_from_packed(self._shorten(trajectories, column))

    @pytest.mark.parametrize(
        "column",
        ["xs", "ys", "ts", "nodes", "fragment_trids", "location_counts",
         "fragment_counts", "cluster_sids"],
    )
    def test_short_cluster_column_is_typed(self, line3, column):
        _, clusters = self._packed(line3)
        with pytest.raises(MalformedPayload):
            clusters_from_packed(self._shorten(clusters, column))

    def test_all_coordinates_missing_is_typed_not_empty(self, line3):
        # Every coordinate column emptied: before the length checks this
        # decoded into fragments with zero locations.
        _, clusters = self._packed(line3)
        empty = base64.b64encode(b"").decode("ascii")
        hollow = {**clusters, "xs": empty, "ys": empty, "ts": empty, "nodes": empty}
        with pytest.raises(MalformedPayload, match="'xs'"):
            clusters_from_packed(hollow)

    def test_empty_fragment_is_typed(self, line3):
        _, clusters = self._packed(line3)
        counts = array("I")
        counts.frombytes(base64.b64decode(clusters["location_counts"]))
        counts[1] += counts[0]
        counts[0] = 0
        moved = {
            **clusters,
            "location_counts": base64.b64encode(counts.tobytes()).decode("ascii"),
        }
        with pytest.raises(MalformedPayload, match="no locations"):
            clusters_from_packed(moved)

    def test_empty_cluster_is_typed(self, line3):
        # An extra sid with a fragment count of 0 leaves every other
        # column consistent; decoded, it was an empty BaseCluster that
        # Phase 2 then merged into flows of its own.
        _, clusters = self._packed(line3)
        sids = array("q")
        sids.frombytes(base64.b64decode(clusters["cluster_sids"]))
        counts = array("I")
        counts.frombytes(base64.b64decode(clusters["fragment_counts"]))
        sids.append(99)
        counts.append(0)
        padded = {
            **clusters,
            "cluster_sids": base64.b64encode(sids.tobytes()).decode("ascii"),
            "fragment_counts": base64.b64encode(counts.tobytes()).decode("ascii"),
        }
        with pytest.raises(MalformedPayload, match="no fragments"):
            clusters_from_packed(padded)

    def test_inflated_location_count_is_typed_before_allocating(self, line3):
        # A count claiming millions of locations must fail the column
        # checks before the decoder expands one sid per claimed location.
        _, clusters = self._packed(line3)
        counts = array("I")
        counts.frombytes(base64.b64decode(clusters["location_counts"]))
        counts[0] += 2_000_000
        inflated = {
            **clusters,
            "location_counts": base64.b64encode(counts.tobytes()).decode("ascii"),
        }
        tracemalloc.start()
        try:
            with pytest.raises(MalformedPayload, match="'xs'"):
                clusters_from_packed(inflated)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("decoder", ["trajectories", "clusters"])
    def test_partial_item_is_typed(self, line3, decoder):
        trajectories, clusters = self._packed(line3)
        payload = trajectories if decoder == "trajectories" else clusters
        raw = base64.b64decode(payload["xs"])
        torn = {**payload, "xs": base64.b64encode(raw[:-3]).decode("ascii")}
        decode = (
            trajectories_from_packed if decoder == "trajectories"
            else clusters_from_packed
        )
        with pytest.raises(MalformedPayload, match="'xs'") as excinfo:
            decode(torn)
        assert isinstance(excinfo.value, TransportError)
        assert excinfo.value.kind == "protocol"

    @pytest.mark.parametrize("damage", ["missing", "not-a-string"])
    @pytest.mark.parametrize("decoder", ["trajectories", "clusters"])
    def test_absent_or_non_string_column_is_typed(self, line3, decoder, damage):
        trajectories, clusters = self._packed(line3)
        payload = dict(trajectories if decoder == "trajectories" else clusters)
        if damage == "missing":
            del payload["xs"]
        else:
            payload["xs"] = [0.0, 1.0]
        decode = (
            trajectories_from_packed if decoder == "trajectories"
            else clusters_from_packed
        )
        with pytest.raises(MalformedPayload, match="'xs'") as excinfo:
            decode(payload)
        assert excinfo.value.kind == "protocol"

    @pytest.mark.parametrize("reply", [{}, {"clusters": []}, None])
    def test_reply_without_packed_clusters_is_typed(self, reply):
        node = RemoteDataNode(0, ReplyClient(reply))
        with pytest.raises(MalformedPayload, match="clusters_packed"):
            node.finish_preprocess(None)

    def test_malformed_request_is_a_protocol_error_reply(self, line3, shard):
        trajectories, _ = self._packed(line3)
        client = TransportClient(shard.host, shard.port)
        try:
            with pytest.raises(TransportError) as excinfo:
                client.call(
                    "preprocess",
                    {"trajectories_packed": self._shorten(trajectories, "xs")},
                )
        finally:
            client.close()
        assert excinfo.value.kind == "protocol"
        assert "MalformedPayload" in str(excinfo.value)

    def test_preprocess_packed_matches_local(self, line3, shard):
        trajectories = [
            trajectory_through(line3, trid, [0, 1, 2]) for trid in range(5)
        ]
        client = TransportClient(shard.host, shard.port)
        result = client.call(
            "preprocess",
            {"trajectories_packed": trajectories_to_packed(trajectories)},
        )
        client.close()
        remote = clusters_from_packed(result["clusters_packed"])
        local = form_base_clusters(line3, trajectories)
        assert [c.sid for c in remote] == [c.sid for c in local]
        assert [c.fragments for c in remote] == [c.fragments for c in local]


# ----------------------------------------------------------------------
# Shard-side distances (the remote half of Phase 3)
# ----------------------------------------------------------------------
class TestDistancesOp:
    def test_distances_match_local_engine(self, line3, shard):
        groups = [(0, (1, 3)), (2, (1,)), (2, (2,))]
        node = RemoteDataNode(0, TransportClient(shard.host, shard.port))
        results = node.finish_distances(
            node.start_distances(groups, 1000.0), groups
        )
        node.client.close()
        graph = line3.csr(False)
        assert results == [
            graph.multi_target_distances(source, targets, 1000.0)
            for source, targets in groups
        ]
        assert shard.stats()["distance_groups"] == len(groups)

    def test_distance_beyond_cutoff_is_none(self, line3, shard):
        # Nodes 0 and 3 are 300 m apart on the 3-segment line; a 50 m
        # cutoff makes them mutually unreachable for an eps query.
        node = RemoteDataNode(0, TransportClient(shard.host, shard.port))
        [(found, expanded)] = node.finish_distances(
            node.start_distances([(0, (3,))], 50.0), [(0, (3,))]
        )
        node.client.close()
        assert found.get(3) is None
        assert expanded > 0

    @pytest.mark.parametrize("damage", [
        lambda p: p.pop("targets"),
        lambda p: p.update(sources="not base64!"),
        lambda p: p.update(targets=_pack_array(array("q", [1]))),
        lambda p: p.update(
            counts=_pack_array(array("q", [-1, 3])),
            targets=_pack_array(array("q", [1])),
        ),
        lambda p: p.update(sources=_pack_array(array("q", [0, 99]))),
        lambda p: p.update(cutoff=None),
        lambda p: p.update(cutoff=-1.0),
        lambda p: p.update(cutoff=float("inf")),
        lambda p: p.update(cutoff=True),
    ], ids=[
        "missing-column", "not-base64", "counts-disagree", "negative-count",
        "unknown-junction", "no-cutoff", "negative-cutoff",
        "infinite-cutoff", "boolean-cutoff",
    ])
    def test_malformed_request_is_a_protocol_error(self, line3, damage):
        payload = distances_payload([(0, (1, 3)), (2, (1,))], 100.0)
        damage(payload)
        reply, action = ShardNode(line3).execute(
            {"op": "distances", "payload": payload}
        )
        assert reply["ok"] is False and reply["kind"] == "protocol"
        assert action == "keep"

    @pytest.mark.parametrize("reply", [
        {"distances": _pack_array(array("d", [1.0])),
         "expanded": _pack_array(array("q", [1, 1]))},
        {"distances": _pack_array(array("d", [1.0, 2.0, 3.0])),
         "expanded": _pack_array(array("q", [1]))},
        {"distances": _pack_array(array("d", [1.0, float("nan"), 3.0])),
         "expanded": _pack_array(array("q", [1, 1]))},
        {"expanded": _pack_array(array("q", [1, 1]))},
        None,
    ], ids=["short-distances", "short-expanded", "nan", "missing", "none"])
    def test_malformed_reply_is_typed(self, line3, reply):
        groups = [(0, (1, 3)), (2, (1,))]
        node = RemoteDataNode(0, ReplyClient(reply))
        with pytest.raises(MalformedPayload):
            node.finish_distances(node.start_distances(groups, 100.0), groups)


# ----------------------------------------------------------------------
# Pooled remote-Phase-3 coordinator run
# ----------------------------------------------------------------------
class TestRemotePhase3Pooled:
    def test_byte_identical_to_serial(self, small_workload):
        network, dataset = small_workload
        trajectories = list(dataset)
        config = NEATConfig(eps=6500.0)
        serial = NEAT(network, config).run(trajectories, mode="opt")
        reference = wire_document(serial, network)

        telemetry = Telemetry()
        servers = [ShardNodeServer(network, node_id=i).start() for i in range(3)]
        try:
            nodes = [
                RemoteDataNode(i, TransportClient(
                    s.host, s.port, metrics=telemetry.metrics, pool_size=2,
                ))
                for i, s in enumerate(servers)
            ]
            coordinator = NeatCoordinator(
                network, config, nodes=nodes,
                shardmap=RegionShardMap(network, [0, 1, 2], route="trid"),
                telemetry=telemetry, remote_phase3=True,
            )
            result = coordinator.run(trajectories, mode="opt")
            document = wire_document(result, network)
        finally:
            for node in nodes:
                node.client.close()
            for server in servers:
                server.stop()
        assert document == reference
        metrics = telemetry.metrics
        # Phase 3's distance work really ran on the shards, over
        # persistent connections.
        assert metrics.value("coordinator.phase3_remote_pairs") > 0
        assert metrics.value("pool.connections_reused") > 0
        assert metrics.value("transport.reconnects") == 0


# ----------------------------------------------------------------------
# Spawn rendezvous timeout
# ----------------------------------------------------------------------
class TestSpawnTimeout:
    def test_timeout_error_names_the_silent_shard(self, line3, tmp_path):
        network_path = tmp_path / "network.json"
        save_network(line3, network_path)
        # A fake interpreter that stays alive but never binds a port —
        # the worst startup failure mode, because nothing ever errors.
        fake_python = tmp_path / "stuck-python"
        fake_python.write_text("#!/bin/sh\nsleep 60\n", encoding="utf-8")
        fake_python.chmod(0o755)
        with pytest.raises(TransportError) as excinfo:
            spawn_local_shards(
                network_path, 1,
                work_dir=tmp_path / "shards",
                python=str(fake_python),
                startup_timeout_s=0.3,
            )
        assert excinfo.value.kind == "stalled"
        message = str(excinfo.value)
        assert "shard 0" in message
        assert "port file" in message
        assert "shard-0.port" in message
        assert "startup_timeout_s=0.3" in message
