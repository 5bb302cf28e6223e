"""Tiered distance oracle: grouped multi-source kernels vs per-pair Dijkstra.

One measurement, one artifact (``output/BENCH_distance_oracle.json``):
the same paper-scale Phase 3 workload is clustered three times —

* ``pairwise`` — the per-pair reference: the ``tiered`` config with
  :meth:`ShortestPathEngine.prefetch_grouped` patched out, so every
  surviving endpoint pair gets its own (bidirectional) Dijkstra,
  answered lazily during DBSCAN region queries.
* ``tiered`` — the default oracle: surviving endpoint pairs are grouped
  by shared endpoint and answered by eps-bounded multi-target searches
  (one Dijkstra per *group*, early-exiting once its targets settle).
* ``tiered_llb`` — the tiered oracle plus the landmark (ALT) lower-bound
  prune between the Euclidean bound and the exact Hausdorff distance.

All three must produce byte-identical cluster output (compared through
the canonical ``result_to_dict`` JSON serialization), and the tiered run
must be counter-deterministic across repeats.  The artifact records the
executed-search and settled-node reductions (acceptance: both >= 2x) and
the ELB-only vs ELB+LLB pruning rates for the Figure 7 discussion.

Scale knob: ``REPRO_BENCH_ORACLE_OBJECTS`` (dataset size, default 300).
Run standalone with ``python benchmarks/bench_distance_oracle.py
[--smoke]`` (smoke mode shrinks the workload so CI finishes in seconds;
the >= 2x assertions only apply at full scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from unittest import mock

OUTPUT_DIR = Path(__file__).parent / "output"
ARTIFACT = OUTPUT_DIR / "BENCH_distance_oracle.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import NEATConfig  # noqa: E402
from repro.core.pipeline import NEAT  # noqa: E402
from repro.core.serialize import result_to_dict  # noqa: E402
from repro.experiments.figures import DEFAULT_EPS  # noqa: E402
from repro.experiments.harness import export_metrics, format_table  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    WorkloadSpec,
    build_dataset,
    build_network,
)
from repro.roadnet.shortest_path import ShortestPathEngine  # noqa: E402


def _object_count() -> int:
    return int(os.environ.get("REPRO_BENCH_ORACLE_OBJECTS", "300"))


def _cluster_digest(result) -> str:
    """Stable byte-level fingerprint of the final clustering."""
    document = result_to_dict(result)
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run_variant(network, dataset, config: NEATConfig) -> dict:
    neat = NEAT(network, config)
    result = neat.run_opt(dataset)
    stats = result.refinement_stats
    pair_checks = stats.pair_checks or 1
    return {
        "clusters": len(result.clusters),
        "digest": _cluster_digest(result),
        "sp_computations": neat.engine.computations,
        "grouped_searches": neat.engine.grouped_searches,
        "nodes_expanded": neat.engine.nodes_expanded,
        "cache_hits": neat.engine.cache_hits,
        "pair_checks": stats.pair_checks,
        "elb_pruned": stats.elb_pruned,
        "llb_evaluations": stats.llb_evaluations,
        "llb_pruned": stats.llb_pruned,
        "hausdorff_evaluations": stats.hausdorff_evaluations,
        "elb_prune_rate": round(stats.elb_pruned / pair_checks, 4),
        "combined_prune_rate": round(
            (stats.elb_pruned + stats.llb_pruned) / pair_checks, 4
        ),
        "phase3_s": round(result.timings.refine, 4),
    }


def run_oracle_comparison(
    region: str = "SJ",
    objects: int | None = None,
    network_scale: float | None = None,
) -> dict:
    """Cluster one workload through all three oracle configurations.

    ``min_card=0`` keeps every flow so the pairwise distance matrix is
    large enough for grouping to matter (mirrors ``bench_sp_core``).
    """
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

    variants = {
        "tiered": NEATConfig(eps=eps, min_card=0),
        "tiered_llb": NEATConfig(eps=eps, min_card=0, use_llb=True),
    }
    # The per-pair reference arm: with the grouped prefetch skipped, each
    # region query runs its own bounded point search.
    with mock.patch.object(
        ShortestPathEngine, "prefetch_grouped", lambda self, *a, **k: 0
    ):
        rows = {"pairwise": _run_variant(network, dataset, variants["tiered"])}
    rows.update((name, _run_variant(network, dataset, config))
                for name, config in variants.items())

    # Correctness gate: the oracle tiers are pure accelerations — every
    # variant must emit the byte-identical clustering document.
    digests = {row["digest"] for row in rows.values()}
    assert len(digests) == 1, f"oracle variants disagree on clusters: {rows}"

    # Determinism gate: a repeated tiered run reproduces every counter
    # (wall clock is the one field allowed to wobble).
    repeat = _run_variant(network, dataset, variants["tiered"])
    counters = lambda row: {k: v for k, v in row.items() if k != "phase3_s"}  # noqa: E731
    assert counters(repeat) == counters(rows["tiered"]), (
        f"tiered oracle is not deterministic: {repeat} != {rows['tiered']}"
    )

    pairwise, tiered = rows["pairwise"], rows["tiered"]
    return {
        "network": region,
        "objects": len(dataset),
        "eps": eps,
        "pairwise": pairwise,
        "tiered": tiered,
        "tiered_llb": rows["tiered_llb"],
        "search_reduction": round(
            pairwise["sp_computations"] / max(1, tiered["sp_computations"]), 2
        ),
        "expansion_reduction": round(
            pairwise["nodes_expanded"] / max(1, tiered["nodes_expanded"]), 2
        ),
        "identical_clusters": True,
        "deterministic_counters": True,
    }


def render_oracle_comparison(report: dict) -> str:
    rows = []
    for name in ("pairwise", "tiered", "tiered_llb"):
        row = report[name]
        rows.append(
            (
                name,
                row["sp_computations"],
                row["nodes_expanded"],
                row["elb_prune_rate"],
                row["combined_prune_rate"],
                row["phase3_s"],
            )
        )
    return "\n".join(
        [
            "Distance oracle tiers: one Phase 3 workload, three oracles "
            f"({report['network']}, {report['objects']} objects, "
            f"eps={report['eps']})",
            format_table(
                (
                    "oracle",
                    "searches",
                    "settled nodes",
                    "ELB prune",
                    "ELB+LLB prune",
                    "phase3 s",
                ),
                rows,
            ),
            f"search reduction: {report['search_reduction']}x, "
            f"settled-node reduction: {report['expansion_reduction']}x "
            "(identical clusters, deterministic counters)",
        ]
    )


def bench_distance_oracle(emit):
    """Pytest entry point: run the comparison, write the artifact."""
    report = run_oracle_comparison()
    export_metrics(report, ARTIFACT)
    emit("distance_oracle", render_oracle_comparison(report))
    assert report["search_reduction"] >= 2.0
    assert report["expansion_reduction"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    """Standalone runner (CI smoke mode shrinks the workload)."""
    import argparse

    from repro.tune.profiles import add_profile_argument, resolve_profile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: checks the harness runs, not the reductions",
    )
    add_profile_argument(parser)
    options = parser.parse_args(argv)

    if options.profile:
        spec = resolve_profile(options.profile).bench_spec(smoke=options.smoke)
        report = run_oracle_comparison(
            region=spec.region,
            objects=spec.object_count,
            network_scale=spec.network_scale,
        )
    elif options.smoke:
        report = run_oracle_comparison(region="ATL", objects=40)
    else:
        report = run_oracle_comparison()
        assert report["search_reduction"] >= 2.0
        assert report["expansion_reduction"] >= 2.0
    export_metrics(report, ARTIFACT)
    print(render_oracle_comparison(report))
    print(f"\nwrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
