"""``NEAT.run_resumable``: phase checkpoints, resume and recompute.

A rerun over the same input resumes from the furthest matching phase
checkpoint and recomputes only what is missing; a changed input, a
changed network or an unreadable checkpoint recomputes.  Restored phases
report zero in ``PhaseTimings``, so the timings say which phases ran.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.core.serialize import result_to_dict
from repro.resilience import FaultInjector, FaultPlan
from repro.roadnet.io import network_from_dict, network_to_dict, save_network

from conftest import recipe_input

CONFIG = NEATConfig(eps=500.0)


def document(result, network):
    return result_to_dict(result, network_name=network.name)


def ran(result) -> tuple[bool, bool, bool]:
    """Which phases this run computed (restored phases time zero)."""
    timings = result.timings
    return timings.base > 0.0, timings.flow > 0.0, timings.refine > 0.0


def generations(state_dir):
    return sorted((state_dir / "phases").glob("gen-*.snap"))


@pytest.fixture
def workload(small_workload):
    network, dataset = small_workload
    return network, list(dataset)


class TestResume:
    def test_second_run_resumes_every_phase(self, workload, tmp_path):
        network, trajectories = workload
        first = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        second = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        assert ran(first) == (True, True, True)
        assert ran(second) == (False, False, False)
        assert document(second, network) == document(first, network)
        assert document(first, network) == document(
            NEAT(network, CONFIG).run(trajectories), network
        )

    def test_flow_checkpoint_then_opt_recomputes_only_phase3(
        self, workload, tmp_path
    ):
        network, trajectories = workload
        flow = NEAT(network, CONFIG).run_resumable(
            trajectories, mode="flow", state_dir=tmp_path, fsync=False
        )
        assert ran(flow) == (True, True, False)
        opt = NEAT(network, CONFIG).run_resumable(
            trajectories, mode="opt", state_dir=tmp_path, fsync=False
        )
        assert ran(opt) == (False, False, True)
        assert document(opt, network) == document(
            NEAT(network, CONFIG).run(trajectories), network
        )

    def test_opt_checkpoint_answers_base_request(self, workload, tmp_path):
        network, trajectories = workload
        NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        base = NEAT(network, CONFIG).run_resumable(
            trajectories, mode="base", state_dir=tmp_path, fsync=False
        )
        assert ran(base) == (False, False, False)
        assert base.mode == "base"
        assert document(base, network) == document(
            NEAT(network, CONFIG).run(trajectories, mode="base"), network
        )


class TestRecompute:
    def test_different_eps_recomputes(self, workload, tmp_path):
        network, trajectories = workload
        NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        wider = NEATConfig(eps=1500.0)
        result = NEAT(network, wider).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        assert ran(result) == (True, True, True)
        assert document(result, network) == document(
            NEAT(network, wider).run(trajectories), network
        )

    def test_network_geometry_change_recomputes(self, tmp_path):
        # Scaling every junction keeps the network's name and segment
        # count; the saved rows still change, and so does the clustering.
        network, trajectories, eps = recipe_input("SPREAD")
        config = NEATConfig(eps=eps)
        saved = network_to_dict(network)
        saved["junctions"] = [
            [node_id, x * 3.0, y * 3.0] for node_id, x, y in saved["junctions"]
        ]
        scaled = network_from_dict(saved)
        assert scaled.name == network.name
        assert scaled.segment_count == network.segment_count

        stale = NEAT(network, config).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        result = NEAT(scaled, config).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        fresh = NEAT(scaled, config).run(trajectories)
        assert len(fresh.clusters) != len(stale.clusters)
        assert ran(result) == (True, True, True)
        assert document(result, scaled) == document(fresh, scaled)

    def test_corrupt_newest_generation_falls_back(self, workload, tmp_path):
        network, trajectories = workload
        expected = document(
            NEAT(network, CONFIG).run_resumable(
                trajectories, state_dir=tmp_path, fsync=False
            ),
            network,
        )
        newest = generations(tmp_path)[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        # The older generation (the flow checkpoint) still verifies.
        result = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        assert ran(result) == (False, False, True)
        assert document(result, network) == expected

    def test_every_generation_corrupt_recomputes(self, workload, tmp_path):
        network, trajectories = workload
        expected = document(
            NEAT(network, CONFIG).run_resumable(
                trajectories, state_dir=tmp_path, fsync=False
            ),
            network,
        )
        for path in generations(tmp_path):
            path.write_bytes(b"not a snapshot")
        result = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        assert ran(result) == (True, True, True)
        assert document(result, network) == expected

    def test_failed_checkpoint_write_does_not_fail_the_run(
        self, workload, tmp_path
    ):
        # The flow checkpoint's write fails as a full disk would.
        network, trajectories = workload
        faults = FaultInjector()
        faults.arm("snapshot.pre_rename", FaultPlan(
            fail_nth=2, exception=lambda op, n: OSError(28, "no space left"),
        ))
        result = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False, faults=faults
        )
        expected = document(NEAT(network, CONFIG).run(trajectories), network)
        assert ran(result) == (True, True, True)
        assert document(result, network) == expected
        assert len(generations(tmp_path)) == 2  # base and opt landed

    def test_crash_before_rename_recomputes_on_rerun(self, workload, tmp_path):
        # The opt checkpoint's write dies between temp write and rename:
        # the run fails, and the rerun resumes from the flow checkpoint.
        network, trajectories = workload
        faults = FaultInjector()
        faults.arm("snapshot.pre_rename", FaultPlan(fail_nth=3))
        with pytest.raises(Exception):
            NEAT(network, CONFIG).run_resumable(
                trajectories, state_dir=tmp_path, fsync=False, faults=faults
            )
        result = NEAT(network, CONFIG).run_resumable(
            trajectories, state_dir=tmp_path, fsync=False
        )
        assert ran(result) == (False, False, True)
        assert document(result, network) == document(
            NEAT(network, CONFIG).run(trajectories), network
        )


class TestCli:
    def test_state_dir_json_is_stable_across_runs(
        self, small_workload, tmp_path, capsys
    ):
        from repro.mobisim.io import save_dataset

        network, dataset = small_workload
        network_path = tmp_path / "net.json"
        traces_path = tmp_path / "traces.json"
        save_network(network, network_path)
        save_dataset(dataset, traces_path)
        argv = [
            "cluster", "--network", str(network_path),
            "--traces", str(traces_path), "--eps", "500",
            "--state-dir", str(tmp_path / "state"), "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert json.loads(first)["flows"]
        assert second == first
        assert generations(tmp_path / "state")
