"""Phase 3 fan-out: serial vs pooled grouped shortest-path searches.

One measurement, one artifact (``output/BENCH_sp_core.json``): one
opt-NEAT run with ``workers=1`` vs ``workers=4``.  The grouped searches
behind DBSCAN run across worker processes, and the artifact records the
Phase 3 wall-clock for both together with the engine counters, which
must be identical (the pool only changes *when* searches run, never
*which*).  CI gates ``phase3.phase3_speedup`` >= 1.0 on runners with at
least 4 CPUs (``phase3.available_cpus``).

Scale knob: ``REPRO_BENCH_SP_OBJECTS`` (Phase 3 dataset size, default
300).  Run standalone with ``python benchmarks/bench_sp_core.py
[--smoke] [--profile small|medium|stress]`` (the CI smoke mode shrinks
the workload so the run finishes in seconds; ``--profile`` pins it to a
named rung of the ladder instead of the env-var knob).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"
ARTIFACT = OUTPUT_DIR / "BENCH_sp_core.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import NEATConfig  # noqa: E402
from repro.core.pipeline import NEAT  # noqa: E402
from repro.experiments.harness import export_metrics, format_table  # noqa: E402
from repro.parallel import available_cpus, pool_counters  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    WorkloadSpec,
    build_dataset,
    build_network,
)


def _object_count() -> int:
    return int(os.environ.get("REPRO_BENCH_SP_OBJECTS", "300"))


def run_phase3_fanout(
    region: str = "SJ",
    objects: int | None = None,
    workers: int = 4,
    network_scale: float | None = None,
) -> dict:
    """opt-NEAT Phase 3 wall-clock, serial vs process-parallel.

    ``min_card=0`` keeps every flow so the pairwise distance matrix is
    large enough for the fan-out to matter (the default workloads leave
    only a handful of flows and Phase 3 finishes in milliseconds).  On a
    single-CPU host the parallel run can only be slower — the artifact
    records ``available_cpus`` so the speedup is read in context.
    """
    from repro.experiments.figures import DEFAULT_EPS

    network = build_network(region, network_scale)
    dataset = build_dataset(
        network,
        WorkloadSpec(
            region,
            objects if objects is not None else _object_count(),
            network_scale=network_scale,
        ),
    )
    eps = 2.0 * DEFAULT_EPS.get(region, 800.0)

    runs = {}
    pool_before = pool_counters()
    for worker_count in (1, workers):
        neat = NEAT(network, NEATConfig(eps=eps, min_card=0, workers=worker_count))
        result = neat.run_opt(dataset)
        runs[worker_count] = (result, neat.engine)
    pool_delta = {
        name: value - pool_before[name]
        for name, value in pool_counters().items()
        if value - pool_before[name]
    }

    serial_result, serial_engine = runs[1]
    fanned_result, fanned_engine = runs[workers]
    # Determinism guarantee: identical clusters and identical accounting.
    assert len(serial_result.clusters) == len(fanned_result.clusters)
    assert serial_result.refinement_stats == fanned_result.refinement_stats
    assert serial_engine.computations == fanned_engine.computations
    assert serial_engine.cache_hits == fanned_engine.cache_hits

    serial_refine = serial_result.timings.refine
    fanned_refine = fanned_result.timings.refine
    return {
        "network": region,
        "objects": len(dataset),
        "eps": eps,
        "workers": workers,
        "available_cpus": available_cpus(),
        "clusters": len(serial_result.clusters),
        "sp_computations": serial_engine.computations,
        "phase3_serial_s": round(serial_refine, 4),
        "phase3_parallel_s": round(fanned_refine, 4),
        "phase3_speedup": round(serial_refine / fanned_refine, 2)
        if fanned_refine
        else None,
        "total_serial_s": round(serial_result.timings.total, 4),
        "total_parallel_s": round(fanned_result.timings.total, 4),
        "pool": pool_delta,
    }


def _render(fanout: dict) -> str:
    lines = [
        "Phase 3 fan-out: opt-NEAT refinement wall-clock "
        f"({fanout['network']}, {fanout['objects']} objects, eps={fanout['eps']}, "
        f"{fanout['available_cpus']} CPU(s) available)",
        format_table(
            ("workers", "phase3 s", "total s"),
            [
                (1, fanout["phase3_serial_s"], fanout["total_serial_s"]),
                (
                    fanout["workers"],
                    fanout["phase3_parallel_s"],
                    fanout["total_parallel_s"],
                ),
            ],
        ),
        f"phase3 speedup: {fanout['phase3_speedup']}x "
        f"({fanout['sp_computations']} shortest-path computations, "
        "identical at both settings)",
    ]
    if fanout["available_cpus"] < 2:
        lines.append(
            "note: single-CPU host — worker processes can only time-slice, "
            "so a wall-clock win is not expected here"
        )
    return "\n".join(lines)


def bench_sp_core(emit):
    """Pytest entry point: run the fan-out, write the artifact."""
    fanout = run_phase3_fanout()
    export_metrics({"phase3": fanout}, ARTIFACT)
    emit("sp_core", _render(fanout))
    if fanout["available_cpus"] >= 4:
        # Zero-copy acceptance floor: the shared-memory pool must beat
        # serial by 2x at 4 workers (only meaningful with real CPUs).
        assert fanout["phase3_speedup"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    """Standalone runner (CI smoke mode shrinks the workload)."""
    import argparse

    from repro.tune.profiles import add_profile_argument, resolve_profile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: checks the harness runs, not the speedup",
    )
    add_profile_argument(parser)
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="append the artifact to benchmarks/history/BENCH_history.jsonl",
    )
    options = parser.parse_args(argv)

    if options.profile:
        spec = resolve_profile(options.profile).bench_spec(smoke=options.smoke)
        fanout = run_phase3_fanout(
            region=spec.region,
            objects=spec.object_count,
            network_scale=spec.network_scale,
        )
    elif options.smoke:
        fanout = run_phase3_fanout(region="ATL", objects=40, workers=4)
    else:
        fanout = run_phase3_fanout()
    export_metrics({"phase3": fanout}, ARTIFACT)
    print(_render(fanout))
    print(f"\nwrote {ARTIFACT}")
    if options.append_history:
        from bench_history import append_entry

        entry = append_entry(ARTIFACT, profile=options.profile)
        label = f", profile {entry['profile']}" if "profile" in entry else ""
        print(
            f"appended sp_core ({entry['workload']}{label}) "
            f"@ {entry['git_sha']} to the bench ledger"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
