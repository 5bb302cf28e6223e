"""Paper-scale feasibility run (opt-in: set REPRO_PAPER_SCALE=1).

Runs opt-NEAT at the paper's actual scale — the full-size ATL network
(~7k junctions, ~9.2k segments) with 5000 objects (~0.8M points) and the
paper's eps = 6500 m — to confirm the implementation handles Table II's
magnitudes, not just the scaled bench workloads.  Skipped by default:
trace generation alone takes about half a minute.

Reference measurement (2-CPU x86-64 host, CPython 3.11.7, 2026-10-21;
four cold runs, one process each, medians with the range): opt-NEAT
4.34 s total (4.14-4.79 s): Phase 1 1.55 s (1.51-2.08), Phase 2
1.09 s (1.02-1.20), Phase 3 1.60 s (1.56-1.77, with ELB); 15 flows,
3 clusters — an order of magnitude below the paper's 59.7 s for
ATL5000 on 2008-era Java.  Phase 2's own work is about 0.1 s of its
1.09 s: the rest is a ~1 s generation-1 collection that Phase 1's
allocations set off, which lands in Phase 2 or Phase 3 depending on
the process's allocation history.

Run with ``REPRO_PAPER_SCALE=1 python -m pytest
benchmarks/bench_paper_scale.py``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from repro.core.config import NEATConfig  # noqa: E402
from repro.core.pipeline import NEAT  # noqa: E402
from repro.experiments.harness import format_seconds  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    WorkloadSpec,
    build_dataset,
    build_network,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PAPER_SCALE") != "1",
    reason="paper-scale run is opt-in (REPRO_PAPER_SCALE=1)",
)


def bench_paper_scale_atl5000(benchmark, emit):
    """opt-NEAT over the full-size ATL network with 5000 objects."""
    network = build_network("ATL", network_scale=1.0)
    dataset = build_dataset(
        network, WorkloadSpec("ATL", 5000, network_scale=1.0)
    )
    neat = NEAT(network, NEATConfig(eps=6500.0))
    result = benchmark.pedantic(
        lambda: neat.run_opt(dataset), rounds=1, iterations=1
    )
    emit(
        "paper_scale",
        "Paper-scale run: full ATL network, ATL5000\n"
        f"  network: {network.junction_count} junctions, "
        f"{network.segment_count} segments (paper: 6979 / 9187)\n"
        f"  dataset: {dataset.total_points} points (paper: 1,277,521)\n"
        f"  opt-NEAT: {format_seconds(result.timings.total)} "
        f"(Phase 1 {format_seconds(result.timings.base)}, "
        f"Phase 2 {format_seconds(result.timings.flow)}, "
        f"Phase 3 {format_seconds(result.timings.refine)}; "
        f"paper: 59.7 s on 2008 Java) -> {result.flow_count} flows, "
        f"{result.cluster_count} clusters",
    )
    assert result.flows
