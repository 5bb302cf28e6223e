"""Tests for the command-line interface."""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main
from repro.obs.logging import _HANDLER_MARK


@pytest.fixture(autouse=True)
def _drop_cli_log_handlers():
    """main() configures repro logging; detach handlers bound to capsys."""
    yield
    root = logging.getLogger("repro")
    for handler in [h for h in root.handlers if getattr(h, _HANDLER_MARK, False)]:
        root.removeHandler(handler)
    root.setLevel(logging.WARNING)


@pytest.fixture
def saved_network(tmp_path):
    path = tmp_path / "net.json"
    assert main([
        "generate-network", "--region", "ATL", "--scale", "0.03",
        "--out", str(path),
    ]) == 0
    return path


@pytest.fixture
def saved_traces(tmp_path, saved_network):
    path = tmp_path / "traces.json"
    assert main([
        "simulate", "--network", str(saved_network),
        "--objects", "30", "--out", str(path),
    ]) == 0
    return path


class TestGenerateNetwork:
    def test_writes_valid_json(self, saved_network):
        data = json.loads(saved_network.read_text())
        assert data["format"] == "repro-roadnet"
        assert data["segments"]

    def test_output_message(self, saved_network, capsys):
        main(["stats", str(saved_network)])
        out = capsys.readouterr().out
        assert "Regions" in out


class TestSimulate:
    def test_writes_traces(self, saved_traces):
        data = json.loads(saved_traces.read_text())
        assert data["format"] == "repro-trajectories"
        assert len(data["trajectories"]) > 0

    def test_seed_controls_output(self, tmp_path, saved_network):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--network", str(saved_network), "--objects", "10",
              "--seed", "1", "--out", str(a)])
        main(["simulate", "--network", str(saved_network), "--objects", "10",
              "--seed", "1", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestCluster:
    def test_opt_mode(self, saved_network, saved_traces, capsys):
        code = main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--mode", "opt",
            "--eps", "500", "--min-card", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "NEAT[opt]" in out
        assert "flow 0:" in out

    def test_svg_output(self, saved_network, saved_traces, tmp_path, capsys):
        svg = tmp_path / "map.svg"
        main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--svg", str(svg),
            "--min-card", "0",
        ])
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_weight_flags(self, saved_network, saved_traces, capsys):
        code = main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces),
            "--wq", "1.0", "--wk", "0.0", "--wv", "0.0", "--min-card", "0",
        ])
        assert code == 0

    def test_json_output_is_single_document(
        self, saved_network, saved_traces, capsys
    ):
        code = main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--mode", "opt",
            "--min-card", "0", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["mode"] == "opt"
        assert document["flows"]
        assert document["network_name"]

    def test_bad_config_is_one_error_line(
        self, saved_network, saved_traces, tmp_path, capsys
    ):
        # A document with a retired field fails loudly, naming the key.
        document = tmp_path / "old.json"
        document.write_text(json.dumps({"config": {"eps": 400.0, "use_llb": False}}))
        code = main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--config", str(document),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "use_llb" in err

    def test_metrics_out_writes_snapshot(
        self, saved_network, saved_traces, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        code = main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--mode", "opt",
            "--min-card", "0", "--metrics-out", str(metrics),
        ])
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["trace"][0]["name"] == "neat.run"
        counters = snapshot["metrics"]["counters"]
        assert counters["neat.phase1.t_fragments"] > 0
        assert "neat.phase3.pair_checks" in counters


class TestLoggingFlags:
    def test_log_level_emits_run_records(
        self, saved_network, saved_traces, capsys
    ):
        code = main([
            "--log-level", "INFO",
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--min-card", "0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "event=" in err
        assert "run complete" in err

    def test_log_json_emits_json_lines(
        self, saved_network, saved_traces, capsys
    ):
        code = main([
            "--log-level", "INFO", "--log-json",
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--min-card", "0",
        ])
        assert code == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines() if line
        ]
        records = [json.loads(line) for line in lines]
        assert any(r["event"] == "run complete" for r in records)

    def test_default_level_is_quiet(self, saved_network, saved_traces, capsys):
        main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--min-card", "0",
        ])
        assert "run complete" not in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestTimelineExports:
    def test_trace_out_and_folded_out(
        self, saved_network, saved_traces, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        folded_path = tmp_path / "run.folded"
        assert main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces),
            "--trace-out", str(trace_path),
            "--folded-out", str(folded_path),
        ]) == 0
        document = json.loads(trace_path.read_text())
        assert document["displayTimeUnit"] == "ms"
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} >= {
            "neat.run", "phase1.fragmentation",
            "phase2.flow_formation", "phase3.refinement",
        }
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        lines = folded_path.read_text().splitlines()
        assert any(line.startswith("neat.run ") for line in lines)
        # Folded self-times telescope back to the root spans' total
        # (integer microseconds, exact by construction).
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        root_events = [
            e for e in complete
            if e["name"] in ("neat.run", "pipeline.resume_probe")
        ]
        assert total > 0
        assert total <= sum(int(round(e["dur"])) for e in complete)
        assert root_events

    def test_profiler_flags(self, saved_network, saved_traces, tmp_path):
        profile_path = tmp_path / "profile.folded"
        assert main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces),
            "--profile-hz", "500", "--profile-out", str(profile_path),
        ]) == 0
        assert profile_path.exists()  # may be empty on a fast run

    def test_streaming_trace_out(
        self, saved_network, saved_traces, tmp_path
    ):
        trace_path = tmp_path / "stream-trace.json"
        assert main([
            "cluster", "--network", str(saved_network),
            "--traces", str(saved_traces), "--batch-size", "10",
            "--trace-out", str(trace_path),
        ]) == 0
        document = json.loads(trace_path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "incremental.add_batch" in names or len(names) > 2


class TestServe:
    def test_serves_all_endpoints_live(
        self, saved_network, saved_traces, tmp_path
    ):
        import json as json_module
        import threading
        import time
        import urllib.request

        port_file = tmp_path / "port.txt"
        codes = []

        def run() -> None:
            codes.append(main([
                "serve", "--network", str(saved_network),
                "--traces", str(saved_traces), "--batch-size", "10",
                "--obs-port", "0", "--port-file", str(port_file),
                "--duration", "8", "--slo-ingest-p99", "60",
            ]))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 20.0
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert port_file.exists(), "serve never wrote its port file"
        base = f"http://127.0.0.1:{int(port_file.read_text())}"

        def get_json(path: str):
            with urllib.request.urlopen(base + path, timeout=10) as response:
                return json_module.loads(response.read())

        health = get_json("/health")
        assert health["status"] in ("ok", "degraded")
        assert health["slo"]["ingest"]["threshold_s"] == 60
        statusz = get_json("/statusz")
        assert statusz["config"]["slo_ingest_p99_s"] == 60
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "service_batches_ingested" in text
        tracez = get_json("/tracez")
        assert tracez["span_count"] >= 1
        thread.join(timeout=30.0)
        assert codes == [0]
