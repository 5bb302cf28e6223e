"""Tests for the bench trend ledger and the regression gate extensions.

The benchmark helpers live outside the package (``benchmarks/``), so the
modules are loaded by path; the tests exercise them exactly the way CI
does — append artifacts, verify, render the trend, gate a current
artifact against the ledger.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_history():
    return _load("bench_history")


@pytest.fixture(scope="module")
def check_perf():
    return _load("check_perf_regression")


def write_artifact(directory: Path, name: str, document: dict) -> Path:
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(document))
    return path


class TestLedger:
    def test_append_round_trips(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(
            tmp_path, "sp_core", {"network": "ATL", "objects": 40, "score": 2.5}
        )
        entry = bench_history.append_entry(artifact, path=ledger)
        assert entry["bench"] == "sp_core"
        assert entry["workload"] == "ATL/objects=40"
        assert entry["metrics"]["score"] == 2.5
        (loaded,) = bench_history.load_ledger(ledger)
        assert loaded == entry

    def test_append_is_append_only(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"v": 1})
        bench_history.append_entry(artifact, path=ledger)
        artifact.write_text(json.dumps({"v": 2}))
        bench_history.append_entry(artifact, path=ledger)
        first, second = bench_history.load_ledger(ledger)
        assert first["metrics"]["v"] == 1
        assert second["metrics"]["v"] == 2

    def test_latest_picks_newest_matching(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"v": 1})
        bench_history.append_entry(artifact, workload="small", path=ledger)
        artifact.write_text(json.dumps({"v": 2}))
        bench_history.append_entry(artifact, workload="small", path=ledger)
        artifact.write_text(json.dumps({"v": 3}))
        bench_history.append_entry(artifact, workload="large", path=ledger)
        assert bench_history.latest_entry("x", path=ledger)["metrics"]["v"] == 3
        assert (
            bench_history.latest_entry("x", workload="small", path=ledger)
            ["metrics"]["v"] == 2
        )
        assert bench_history.latest_entry("missing", path=ledger) is None

    def test_profile_labels_and_filters(self, bench_history, tmp_path):
        # Profile-labeled entries form separate baseline series: a lookup
        # scoped to one ladder rung never sees another rung's runs.
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"v": 1})
        bench_history.append_entry(artifact, profile="small", path=ledger)
        artifact.write_text(json.dumps({"v": 2}))
        bench_history.append_entry(artifact, profile="stress", path=ledger)
        artifact.write_text(json.dumps({"v": 3}))
        bench_history.append_entry(artifact, path=ledger)  # unlabeled

        small = bench_history.latest_entry("x", profile="small", path=ledger)
        stress = bench_history.latest_entry("x", profile="stress", path=ledger)
        assert small["metrics"]["v"] == 1 and small["profile"] == "small"
        assert stress["metrics"]["v"] == 2
        # Unfiltered lookups still see everything (newest wins) and the
        # unlabeled entry carries no profile field at all.
        newest = bench_history.latest_entry("x", path=ledger)
        assert newest["metrics"]["v"] == 3 and "profile" not in newest
        assert (
            bench_history.latest_entry("x", profile="medium", path=ledger)
            is None
        )

    def test_report_splits_series_per_profile(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"network": "ATL", "v": 1})
        bench_history.append_entry(artifact, profile="small", path=ledger)
        bench_history.append_entry(artifact, profile="stress", path=ledger)
        report = bench_history.render_report(bench_history.load_ledger(ledger))
        assert "## x (ATL, profile small)" in report
        assert "## x (ATL, profile stress)" in report

    def test_append_neatbench_record(self, bench_history, tmp_path):
        # A neatbench run record enters the ledger as bench "neatbench":
        # keyed by its workload, stamped with the revision it measured,
        # carrying the result's values plus cpu_count and digest.
        ledger = tmp_path / "ledger.jsonl"
        record = {
            "workload": "batch_dense",
            "environment": {
                "cpu_count": 2, "git_sha": "4adc48b" + "0" * 33,
                "git_dirty": False, "seed": 7,
            },
            "digest": "ab12",
            "result": {
                "correct": True, "attempted": 3, "failed": 0,
                "metrics": {
                    "setup_s": {"value": 0.9, "unit": "s"},
                    "peak_rss_mb": {"value": 139.0, "unit": "MB"},
                },
            },
        }
        artifact = tmp_path / "batch_dense-seed7-trace0.json"
        artifact.write_text(json.dumps(record))
        entry = bench_history.append_entry(artifact, path=ledger)
        assert entry["bench"] == "neatbench"
        assert entry["workload"] == "batch_dense"
        assert entry["git_sha"] == "4adc48b"
        assert entry["metrics"] == {
            "setup_s": 0.9, "peak_rss_mb": 139.0,
            "cpu_count": 2, "digest": "ab12",
        }
        # A traced run is its own series; a dirty tree is marked.
        record["layer_self_s"] = {"phase1": 0.3}
        record["environment"]["git_dirty"] = True
        artifact.write_text(json.dumps(record))
        traced = bench_history.append_entry(artifact, path=ledger)
        assert traced["workload"] == "batch_dense/trace"
        assert traced["git_sha"] == "4adc48b-dirty"
        assert bench_history.load_ledger(ledger) == [entry, traced]
        # A run that failed its correctness gates never enters the ledger.
        record["result"]["correct"] = False
        artifact.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="correctness gates"):
            bench_history.append_entry(artifact, path=ledger)
        assert len(bench_history.load_ledger(ledger)) == 2

    def test_bench_name_requires_convention(self, bench_history, tmp_path):
        rogue = tmp_path / "results.json"
        rogue.write_text("{}")
        with pytest.raises(ValueError):
            bench_history.append_entry(rogue, path=tmp_path / "ledger.jsonl")

    def test_workload_key_falls_back_to_sections(self, bench_history):
        nested = {"microbench": {"network": "MIA", "queries": 40}}
        assert bench_history.workload_key(nested) == "MIA/queries=40"
        assert bench_history.workload_key({}) == "default"

    def test_load_rejects_malformed_lines(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"bench": "x"}\n')
        with pytest.raises(ValueError, match="missing fields"):
            bench_history.load_ledger(ledger)
        ledger.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            bench_history.load_ledger(ledger)


class TestVerify:
    def test_empty_ledger_fails(self, bench_history, tmp_path):
        problems = bench_history.verify(tmp_path / "missing.jsonl")
        assert problems

    def test_requires_every_known_bench(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "sp_core", {"v": 1})
        bench_history.append_entry(artifact, path=ledger)
        problems = bench_history.verify(ledger)
        missing = {b for b in bench_history.KNOWN_BENCHES if b != "sp_core"}
        assert len(problems) == len(missing)
        for bench in missing:
            assert any(bench in line for line in problems)

    def test_committed_ledger_is_healthy(self, bench_history):
        # The real, committed ledger must satisfy its own CI gate.
        assert bench_history.verify() == []
        entries = bench_history.load_ledger()
        assert {e["bench"] for e in entries} >= set(bench_history.KNOWN_BENCHES)
        # Every repository-benchmark workload has an untraced entry.
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        recorded = {e["workload"] for e in entries if e["bench"] == "neatbench"}
        assert recorded >= {w["name"] for w in spec["workloads"]}


class TestReport:
    def test_trend_deltas_between_entries(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"network": "ATL", "score": 100})
        bench_history.append_entry(artifact, path=ledger)
        artifact.write_text(json.dumps({"network": "ATL", "score": 110}))
        bench_history.append_entry(artifact, path=ledger)
        report = bench_history.render_report(bench_history.load_ledger(ledger))
        assert "## x (ATL)" in report
        assert "110 (+10.0%)" in report

    def test_nested_sections_get_columns(self, bench_history, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(
            tmp_path, "x", {"inner": {"network": "ATL", "speedup": 2.0}}
        )
        bench_history.append_entry(artifact, path=ledger)
        report = bench_history.render_report(bench_history.load_ledger(ledger))
        assert "inner.speedup" in report

    def test_empty_and_filtered(self, bench_history):
        assert "No ledger entries" in bench_history.render_report([])
        assert "nope" in bench_history.render_report([], bench="nope")


class TestRegressionGate:
    def test_history_baseline(self, bench_history, check_perf, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"count": 100})
        bench_history.append_entry(artifact, path=ledger)
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"count": 105}))
        assert check_perf.main([
            "--history", str(ledger), "--bench", "x",
            "--current", str(current), "--key", "count",
        ]) == 0
        current.write_text(json.dumps({"count": 150}))
        assert check_perf.main([
            "--history", str(ledger), "--bench", "x",
            "--current", str(current), "--key", "count",
        ]) == 1

    def test_key_max_ceiling(self, check_perf, tmp_path):
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"overhead_pct": 1.4}))
        assert check_perf.main([
            "--current", str(current), "--key-max", "overhead_pct=2.0",
        ]) == 0
        assert check_perf.main([
            "--current", str(current), "--key-max", "overhead_pct=1.0",
        ]) == 1
        assert check_perf.main([
            "--current", str(current), "--key-max", "missing=1.0",
        ]) == 1

    def test_history_baseline_scoped_by_profile(
        self, bench_history, check_perf, tmp_path
    ):
        # A stress smoke appended after a small run must not become the
        # small gate's baseline: --profile restricts the ledger lookup.
        ledger = tmp_path / "ledger.jsonl"
        artifact = write_artifact(tmp_path, "x", {"count": 100})
        bench_history.append_entry(artifact, profile="small", path=ledger)
        artifact.write_text(json.dumps({"count": 4000}))
        bench_history.append_entry(artifact, profile="stress", path=ledger)
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"count": 105}))
        assert check_perf.main([
            "--history", str(ledger), "--bench", "x", "--profile", "small",
            "--current", str(current), "--key", "count",
        ]) == 0
        current.write_text(json.dumps({"count": 150}))
        assert check_perf.main([
            "--history", str(ledger), "--bench", "x", "--profile", "small",
            "--current", str(current), "--key", "count",
        ]) == 1
        # No entry for the requested rung: the gate refuses to guess.
        with pytest.raises(SystemExit):
            check_perf.main([
                "--history", str(ledger), "--bench", "x",
                "--profile", "medium",
                "--current", str(current), "--key", "count",
            ])

    def test_argument_validation(self, check_perf, tmp_path):
        current = tmp_path / "current.json"
        current.write_text("{}")
        with pytest.raises(SystemExit):
            check_perf.main(["--current", str(current)])  # nothing to check
        with pytest.raises(SystemExit):
            check_perf.main([  # --key without any baseline source
                "--current", str(current), "--key", "a",
            ])
        with pytest.raises(SystemExit):
            check_perf.main([  # --history without --bench
                "--current", str(current), "--key", "a",
                "--history", str(current),
            ])
        with pytest.raises(SystemExit):
            check_perf.main([  # --profile only scopes ledger baselines
                "--current", str(current), "--key-max", "a=1.0",
                "--profile", "small",
            ])
