"""NEAT benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 neatbench/run.py --workload batch_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it wraps the program's layer
entry points, alternates traced and untraced repetitions, prints the
per-layer metrics and writes a Chrome trace plus a per-layer self-time
table under ``neatbench/out/``.  Every timing is in host-adjusted seconds
(see ``measure.py``); the raw figures ride along as ``raw.*``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the environment stamp.  A failed correctness gate prints
``"correct": false`` and exits 1; a checkout without the program's
sources exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"neatbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"neatbench: imported repro from {repro.__file__}")
    return repro


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        # An exported checkout; never report an enclosing repository's sha.
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def environment(seed: int, clock) -> dict:
    from repro.parallel import available_cpus
    from repro.vec import get_numpy, resolve_vector_backend

    from neatbench.measure import PROBE_REF_S

    return {
        "cpu_count": available_cpus(),
        "python": platform.python_version(),
        "numpy": get_numpy() is not None,
        "vector_backend": resolve_vector_backend("auto"),
        **_git_state(),
        "seed": seed,
        "probe_ref_s": PROBE_REF_S,
        "host_elasticity": clock.elasticity,
        "host.probe_s": clock.probe_median(),
    }


def stop_helpers() -> None:
    """Stop every helper process the program started, and wait for each.

    The worker pool's processes end with ``shutdown_pool``.  Its shared
    segments started :mod:`multiprocessing`'s resource tracker, a helper
    that otherwise outlives this process until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.parallel import shutdown_pool

    shutdown_pool()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def seconds(measured, clock, name: str, *, raw: bool = False) -> list[float]:
    """Every sample of timing ``name``, host-adjusted unless ``raw``."""
    return [
        sum(part.raw_s for part in parts) if raw else clock.adjusted(parts)
        for parts in measured.timings.get(name, [])
    ]


def end_to_end(measured, clock) -> dict[str, float]:
    from neatbench.measure import median

    def med(name: str) -> float:
        return median(seconds(measured, clock, name))

    ingest_s = med("submit_total_s" if "submit_total_s" in measured.timings else "cluster_s")
    return {
        "setup_s": med("setup_s"),
        "cluster_s": med("cluster_s"),
        "query_p50_s": med("query_s"),
        "ingest_traj_per_s": measured.trajectories / ingest_s,
        "peak_rss_mb": measured.rss_mb,
    }


#: Per-layer metrics that are the program's own counters, passed through.
COUNTER_METRICS = (
    "phase1.t_fragments", "phase1.base_clusters", "phase2.flows",
    "phase2.noise_flows", "phase3.pair_checks", "phase3.elb_pruned",
    "phase3.hausdorff_evals", "phase3.clusters", "sp.searches",
    "sp.nodes_expanded", "sp.grouped_searches", "sp.cache_hits",
    "pool.batches", "pool.tasks", "pool.bytes_shipped", "pool.serial_fallbacks",
    "pool.crash_recoveries", "shard.skew", "shard.boundary_segments",
    "rpc.calls", "rpc.batched_calls", "rpc.bytes_sent", "rpc.reconnects",
    "rpc.errors", "remote_p3.pairs", "remote_p3.local_fallbacks",
    "incremental.retained_flows", "service.stale_queries", "service.retries",
    "persist.journal_bytes", "persist.snapshot_bytes", "persist.distcache_bytes",
)

#: Per-layer time metrics -> the layer whose self time they report.
SELF_TIME_METRICS = {
    "phase1.busy_s": "phase1", "phase2.busy_s": "phase2", "phase3.busy_s": "phase3",
    "sp.busy_s": "sp", "pool.busy_s": "pool", "shard.busy_s": "shard",
    "rpc.send_s": "rpc.send", "rpc.wait_s": "rpc.wait",
    "wire.encode_s": "wire.encode", "wire.decode_s": "wire.decode",
    "coordinator.busy_s": "coordinator", "merge.busy_s": "merge",
    "service.busy_s": "service", "service.admit_s": "service.admit",
    "service.document_s": "service.document", "incremental.busy_s": "incremental",
    "persist.busy_s": "persist", "unattributed_s": "bench",
}


def per_layer(measured, recorder, clock) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, per-layer self-time table) of a traced run."""
    from neatbench import layers
    from neatbench.measure import median, percentile

    runs = measured.traced_runs
    factor = clock.factor()
    table = {
        layer: total * factor / len(runs)
        for layer, total in layers.self_times(recorder, runs).items()
    }
    counters = measured.counters
    service = "submit_s" in measured.timings

    def latency(name: str, pct: float, *, raw: bool = False) -> float:
        """A service latency; the batch workloads have none and read 0."""
        values = seconds(measured, clock, name, raw=raw)
        if not service:
            return 0.0
        return median(values) if pct == 50 else percentile(values, pct)

    def raw_median(name: str) -> float:
        return median(seconds(measured, clock, name, raw=True))

    metrics = {name: float(counters.get(name, 0.0)) for name in COUNTER_METRICS}
    metrics.update({name: table[layer] for name, layer in SELF_TIME_METRICS.items()})
    metrics.update({
        "phase3.elb_prune_rate": _rate(metrics["phase3.elb_pruned"],
                                       metrics["phase3.pair_checks"]),
        "sp.cache_hit_rate": _rate(metrics["sp.cache_hits"],
                                   metrics["sp.cache_hits"] + metrics["sp.searches"]),
        "persist.checkpoints": float(layers.count(recorder, "persist:checkpoint", runs[0])),
        "submit_p50_s": latency("submit_s", 50),
        "submit_p90_s": latency("submit_s", 90),
        "query_p90_s": latency("query_s", 90),
        "recover_s": latency("recover_s", 50),
        "error_rate": _rate(measured.failed, measured.attempted),
        "host.probe_s": clock.probe_median(),
        "raw.setup_s": raw_median("setup_s"),
        "raw.cluster_s": raw_median("cluster_s"),
        "raw.query_p50_s": raw_median("query_s"),
        "raw.submit_p50_s": latency("submit_s", 50, raw=True),
        "raw.submit_p90_s": latency("submit_s", 90, raw=True),
        "raw.query_p90_s": latency("query_s", 90, raw=True),
        "raw.recover_s": latency("recover_s", 50, raw=True),
        "unattributed_pct": 100.0 * _rate(table["bench"], sum(table.values())),
        "trace.overhead_pct": 100.0 * (_rate(
            median([clock.adjusted(parts) for parts in measured.rep_traced]),
            median([clock.adjusted(parts) for parts in measured.rep_untraced]),
        ) - 1.0),
    })
    return metrics, table


def _result(correct: bool, measured, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": correct,
        "attempted": max(1, measured.attempted),
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its shard and pool processes stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        _import_program()
    except ImportError as error:
        print(f"neatbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    except SystemExit as error:
        print(error, file=sys.stderr)
        return 2

    from neatbench import gates, layers
    from neatbench.measure import check_metric_names
    from neatbench.spans import SpanRecorder
    from neatbench.workloads import WORKLOADS, Context

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    check_metric_names(list(units))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{stem}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.enabled = False
        layers.install(recorder)
    ctx = Context(seed=args.seed, seconds=args.seconds, work_dir=work_dir,
                  recorder=recorder)
    started = time.perf_counter()
    measured = ctx.measured
    try:
        WORKLOADS[args.workload](ctx)
    except gates.GateFailed as failure:
        print(f"neatbench: correctness gate {failure.gate} failed: {failure}",
              file=sys.stderr)
        # Wrong output counts as a failed operation even when none raised.
        measured.failed = max(1, measured.failed)
        print(json.dumps({"gate_failed": failure.gate}))
        print(json.dumps(_result(False, measured, {}, units)))
        return 1
    finally:
        stop_helpers()
        if recorder is not None:
            recorder.unwrap_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    clock = ctx.clock
    stamp = environment(args.seed, clock)
    artifact = {
        "workload": args.workload,
        "environment": stamp,
        "wall_s": time.perf_counter() - started,
        "digest": measured.digest,
        "probes": clock.probes,
        "timings": {
            name: [[[part.start, part.end] for part in parts] for parts in samples]
            for name, samples in measured.timings.items()
        },
    }
    if args.trace:
        metrics, table = per_layer(measured, recorder, clock)
        artifact["layer_self_s"] = table
        trace_path = OUT / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(layers.chrome_document(recorder, measured.traced_runs)))
        (OUT / f"{stem}.layers.txt").write_text(_layer_table(table))
    else:
        metrics = end_to_end(measured, clock)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"neatbench: metric set drifted: missing {missing}, extra {extra}")
    result = _result(True, measured, metrics, units)
    artifact["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(artifact, indent=1, default=str))
    print(json.dumps({"environment": stamp}))
    print(json.dumps(result))
    return 0


def _layer_table(table: dict[str, float]) -> str:
    total = sum(table.values()) or 1.0
    rows = ["layer                 self_s/rep   share"]
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        name = "unattributed" if layer == "bench" else layer
        rows.append(f"{name:<20} {seconds:>11.4f} {100 * seconds / total:>6.1f}%")
    return "\n".join(rows) + "\n"


if __name__ == "__main__":
    sys.exit(main())
