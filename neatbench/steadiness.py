"""Steadiness report: run one workload k times back to back and compare.

Usage, from the repository root::

    python3 neatbench/steadiness.py --workload batch_dense --runs 5
    python3 neatbench/steadiness.py --workload batch_dense --seeds 1 1 1 1 1

For every end-to-end metric it prints the median, the quartiles, the
spread (inter-quartile range over the median, as the acceptance check
computes it) and the max/min ratio, for the host-adjusted values and for
their raw twins.  A metric whose adjusted spread exceeds its bound in
``BENCHMARK.json`` is flagged; ``setup_s`` is reported but its spread is
not gated (only its median is compared between sets of runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from neatbench.measure import quartiles, spread  # noqa: E402

#: End-to-end metric -> the artifact's raw sample list behind it.
RAW_SOURCE = {
    "setup_s": "setup_s",
    "cluster_s": "cluster_s",
    "query_p50_s": "query_s",
}


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(metric values, raw metric values) of one untraced run."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    artifact = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    raw = {
        name: statistics.median(
            sum(end - start for start, end in parts)
            for parts in artifact["timings"][source]
        )
        for name, source in RAW_SOURCE.items()
    }
    return values, raw


def report(name: str, values: list[float], bound: float | None, gated: bool) -> str:
    q1, q2, q3 = quartiles(values)
    ratio = max(values) / min(values) if min(values) > 0 else float("inf")
    width = spread(values)
    flag = ""
    if gated and bound is not None and width > bound:
        flag = "  OVER BOUND"
    elif gated and bound is not None and width > bound / 3:
        flag = "  over bound/3"
    return (f"{name:<24} median {q2:>12.5g}  q1 {q1:>12.5g}  q3 {q3:>12.5g}  "
            f"spread {width:6.3f}  max/min {ratio:6.3f}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", type=int, nargs="*")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = args.seeds or list(range(1, args.runs + 1))

    adjusted: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in seeds:
        values, raw_values = run_once(args.workload, seed, seconds)
        for name, value in values.items():
            adjusted.setdefault(name, []).append(value)
        for name, value in raw_values.items():
            raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.5g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs, {seconds} s each; host-adjusted")
    over = []
    for name, values in adjusted.items():
        line = report(name, values, bounds.get(name), gated=name != "setup_s")
        over += [name] if "OVER BOUND" in line else []
        print(line)
    print("raw")
    for name, values in raw.items():
        print(report(f"raw.{name}", values, bounds.get(name), gated=False))
    if over:
        print(f"spread over bound: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
