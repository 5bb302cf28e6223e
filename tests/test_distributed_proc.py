"""Process-level tests for the distributed tier.

Real worker processes, real sockets, real signals: spawning local
shard-node workers, a shard process SIGKILLed mid-run recovering to a
byte-identical result, the ``repro serve --shards`` CLI end to end
(including chaos double-run determinism and quorum loss), and the
graceful SIGTERM shutdown of ``repro serve``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.distributed import (
    NeatCoordinator,
    RegionShardMap,
    RemoteDataNode,
    TransportClient,
    spawn_local_shards,
    stop_shards,
)
from repro.errors import TransportError
from repro.mobisim.io import save_dataset
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.roadnet.generators import atlanta_like
from repro.roadnet.io import save_network

from conftest import wire_document

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        SRC_ROOT + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else SRC_ROOT
    )
    return env


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A saved network + traces pair and its serial reference document."""
    base = tmp_path_factory.mktemp("distributed-proc")
    network = atlanta_like(scale=0.04, seed=11)
    dataset = simulate_dataset(
        network, SimulationConfig(object_count=25, seed=11, name="proc25")
    )
    network_path = base / "network.json"
    traces_path = base / "traces.json"
    save_network(network, network_path)
    save_dataset(dataset, traces_path)
    serial = NEAT(network, NEATConfig()).run(list(dataset), mode="opt")
    reference = wire_document(serial, network)
    return {
        "network": network,
        "trajectories": list(dataset),
        "network_path": network_path,
        "traces_path": traces_path,
        "reference": reference,
    }


# ----------------------------------------------------------------------
# Spawning local shard workers
# ----------------------------------------------------------------------
class TestSpawnLocalShards:
    def test_spawn_ping_stop(self, workload, tmp_path):
        shards = spawn_local_shards(
            workload["network_path"], 2, work_dir=tmp_path, log_dir=tmp_path
        )
        try:
            assert [s.node_id for s in shards] == [0, 1]
            for shard in shards:
                assert shard.alive
                assert (tmp_path / f"shard-{shard.node_id}.pid").exists()
                assert (tmp_path / f"shard-{shard.node_id}.port").exists()
                client = TransportClient(shard.host, shard.port)
                assert client.call("ping") == {"node_id": shard.node_id}
        finally:
            stop_shards(shards)
        for shard in shards:
            assert not shard.alive
        # Worker stdout went to the per-shard log (the CI artifact).
        log = (tmp_path / "shard-0.log").read_text()
        assert "listening" in log

    def test_spawn_bad_network_fails_without_orphans(self, tmp_path):
        with pytest.raises(TransportError) as excinfo:
            spawn_local_shards(
                tmp_path / "missing.json", 1,
                work_dir=tmp_path, startup_timeout_s=30.0,
            )
        assert excinfo.value.kind == "refused"

    def test_rejects_zero_count(self, workload, tmp_path):
        with pytest.raises(ValueError):
            spawn_local_shards(workload["network_path"], 0, work_dir=tmp_path)


# ----------------------------------------------------------------------
# A shard process SIGKILLed mid-run
# ----------------------------------------------------------------------
class TestKilledShardMidRun:
    def test_sigkill_recovers_byte_identical(self, workload, tmp_path):
        shards = spawn_local_shards(
            workload["network_path"], 3, work_dir=tmp_path, log_dir=tmp_path
        )
        try:
            nodes = [
                RemoteDataNode(s.node_id, TransportClient(
                    s.host, s.port, timeout_s=5.0,
                ))
                for s in shards
            ]
            victim = nodes[1]
            victim_process = shards[1].process
            # The pipelined coordinator opens with start_preprocess, so
            # the kill hook rides the request half of the first call.
            original = victim.start_preprocess
            kills = {"count": 0}

            def kill_then_call(*args, **kwargs):
                # A real SIGKILL the moment the coordinator first talks
                # to this node: the failure the client sees is organic.
                if kills["count"] == 0:
                    kills["count"] += 1
                    victim_process.kill()
                    victim_process.wait(timeout=10)
                return original(*args, **kwargs)

            victim.start_preprocess = kill_then_call

            network = workload["network"]
            shardmap = RegionShardMap(network, [0, 1, 2])
            coordinator = NeatCoordinator(
                network, NEATConfig(), nodes=nodes, shardmap=shardmap,
            )
            result = coordinator.run(workload["trajectories"], mode="opt")
            document = wire_document(result, network)
            assert kills["count"] == 1
            assert not shards[1].alive
            assert document == workload["reference"]
            assert result.dropped_shards == []
            assert not nodes[1].healthy       # marked dead
            assert 1 not in shardmap.ring     # ring rebalanced
            assert shardmap.rebalances == 1
        finally:
            stop_shards(shards)


# ----------------------------------------------------------------------
# The serve --shards CLI
# ----------------------------------------------------------------------
class TestServeShardsCLI:
    def run_serve(self, workload, tmp_path, *extra: str) -> int:
        return main([
            "serve",
            "--network", str(workload["network_path"]),
            "--traces", str(workload["traces_path"]),
            "--duration", "0",
            "--obs-port", "0",
            *extra,
        ])

    def test_result_matches_serial(self, workload, tmp_path):
        result_path = tmp_path / "result.json"
        code = self.run_serve(
            workload, tmp_path,
            "--shards", "2",
            "--shard-dir", str(tmp_path / "shards"),
            "--result-out", str(result_path),
        )
        assert code == 0
        assert result_path.read_text().strip() == workload["reference"]

    def test_chaos_double_run_is_deterministic(self, workload, tmp_path):
        fault_spec = json.dumps({
            "transport.node0": {"refuse_nth": 1},
            "transport.node1": {"garble_nth": 1},
        })
        outputs = []
        for run in ("a", "b"):
            result_path = tmp_path / f"result-{run}.json"
            counters_path = tmp_path / f"counters-{run}.json"
            code = self.run_serve(
                workload, tmp_path,
                "--shards", "2",
                "--shard-dir", str(tmp_path / f"shards-{run}"),
                "--fault-spec", fault_spec,
                "--result-out", str(result_path),
                "--counters-out", str(counters_path),
            )
            assert code == 0
            outputs.append(
                (result_path.read_bytes(), counters_path.read_bytes())
            )
        assert outputs[0][0] == outputs[1][0]  # byte-identical clusters
        assert outputs[0][1] == outputs[1][1]  # byte-identical counters
        assert outputs[0][0].decode().strip() == workload["reference"]
        counters = json.loads(outputs[0][1])
        assert counters["transport.refused"] == 1
        assert counters["transport.garbled"] == 1
        assert counters["resilience.retries"] >= 2

    def test_quorum_lost_exits_3(self, workload, tmp_path):
        fault_spec = json.dumps({
            "transport.node0": {"refuse_nth": list(range(1, 21))},
        })
        code = self.run_serve(
            workload, tmp_path,
            "--shards", "1",
            "--shard-dir", str(tmp_path / "shards"),
            "--fault-spec", fault_spec,
            "--min-quorum", "1.0",
        )
        assert code == 3

    def test_shard_process_sigkilled_mid_run(self, workload, tmp_path):
        """The acceptance drill: serve --shards survives a real SIGKILL.

        A stall fault on shard 0's first call (3 s, under the 15 s rpc
        timeout so the call still succeeds) opens a deterministic window
        during which shard 1's worker process is SIGKILLed.  The
        coordinator must recover through retry -> ring rebalance ->
        re-dispatch and exit 0 with clusters byte-identical to serial.
        """
        shard_dir = tmp_path / "shards"
        result_path = tmp_path / "result.json"
        fault_spec = json.dumps({
            "transport.node0": {"stall_nth": 1, "stall_s": 3.0},
        })
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--network", str(workload["network_path"]),
                "--traces", str(workload["traces_path"]),
                "--shards", "3",
                "--shard-dir", str(shard_dir),
                "--fault-spec", fault_spec,
                "--rpc-timeout", "15",
                "--duration", "0",
                "--obs-port", "0",
                "--result-out", str(result_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=subprocess_env(),
            text=True,
        )
        try:
            pid_file = shard_dir / "shard-1.pid"
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert process.poll() is None, process.stdout.read()
                assert time.monotonic() < deadline, "shards never spawned"
                time.sleep(0.05)
            victim_pid = int(pid_file.read_text().strip())
            os.kill(victim_pid, signal.SIGKILL)
            stdout, _ = process.communicate(timeout=180)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stdout
        assert result_path.read_text().strip() == workload["reference"]


# ----------------------------------------------------------------------
# Graceful SIGTERM shutdown of repro serve
# ----------------------------------------------------------------------
class TestServeGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, workload, tmp_path):
        state_dir = tmp_path / "state"
        port_file = tmp_path / "obs.port"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--network", str(workload["network_path"]),
                "--traces", str(workload["traces_path"]),
                "--state-dir", str(state_dir),
                "--port-file", str(port_file),
                "--obs-port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=subprocess_env(),
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert process.poll() is None, process.stdout.read()
                assert time.monotonic() < deadline, "serve never came up"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stdout
        assert "shut down gracefully" in stdout
        # The final checkpoint made the state durable.
        assert state_dir.exists() and any(state_dir.rglob("*"))
