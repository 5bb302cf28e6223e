"""Gate CI on benchmark counter regressions against a committed baseline.

Compares selected (dotted) keys of a freshly produced ``BENCH_*.json``
artifact against a baseline and fails when the current value exceeds the
baseline by more than the allowed fraction.  Counters such as executed
Dijkstra searches and settled nodes are deterministic for a fixed
workload, so the default 10% headroom only forgives intentional small
shifts (e.g. a generator tweak) while catching a broken prune tier or
grouping planner outright.

The baseline is either a static file checked into
``benchmarks/baselines/`` (``--baseline``) or the newest matching entry
of the bench trend ledger (``--history`` + ``--bench``, see
``bench_history.py``), which turns the gate from "never worse than the
day the baseline was committed" into "never worse than the last
recorded run".

``--key-max dotted=limit`` adds absolute ceilings evaluated against the
current artifact alone — the form a latency-SLO-style bound takes (for
example ``overhead_disabled_pct=2.0`` for the observability bench).
``--key-min dotted=floor`` is the mirror image: an absolute floor for
values that must stay *high*, such as ``phase3.phase3_speedup`` from the
sp-core bench.  ``--skip-unless dotted=min`` guards either kind of gate
on an environment precondition carried in the artifact itself — e.g.
``phase3.available_cpus=4`` skips the speedup floor (exit 0, loudly) on
runners where worker processes can only time-slice a single CPU.
``--profile small|medium|stress`` scopes a ``--history`` lookup to ledger
entries labeled with that workload-ladder rung, so smoke and stress runs
of the same bench never compare against each other's baselines.

Usage::

    python benchmarks/check_perf_regression.py \
        --baseline benchmarks/baselines/BENCH_distributed_ingest_baseline.json \
        --current benchmarks/output/BENCH_distributed_ingest.json \
        --key flows --key clusters --key-min vs_serial_by_shards.4=0.30

    python benchmarks/check_perf_regression.py \
        --history benchmarks/history/BENCH_history.jsonl \
        --bench observability_overhead \
        --current benchmarks/output/BENCH_observability_overhead.json \
        --key t_fragments --key-max overhead_disabled_pct=2.0

Exit status 0 when every key is within bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def lookup(document: dict, dotted: str):
    """Resolve ``a.b.c`` into nested dictionaries."""
    node = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def check(baseline: dict, current: dict, keys: list[str], max_regression: float) -> list[str]:
    """Return one human-readable failure line per violated key."""
    failures = []
    for key in keys:
        try:
            base_value = float(lookup(baseline, key))
        except KeyError:
            failures.append(f"{key}: missing from baseline")
            continue
        try:
            new_value = float(lookup(current, key))
        except KeyError:
            failures.append(f"{key}: missing from current artifact")
            continue
        allowed = base_value * (1.0 + max_regression)
        if new_value > allowed:
            failures.append(
                f"{key}: {new_value:g} exceeds baseline {base_value:g} "
                f"by more than {max_regression:.0%} (allowed <= {allowed:g})"
            )
        else:
            print(f"ok: {key} = {new_value:g} (baseline {base_value:g})")
    return failures


def check_ceilings(current: dict, ceilings: list[tuple[str, float]]) -> list[str]:
    """Absolute ``value <= limit`` gates on the current artifact."""
    failures = []
    for key, limit in ceilings:
        try:
            value = float(lookup(current, key))
        except KeyError:
            failures.append(f"{key}: missing from current artifact")
            continue
        if value > limit:
            failures.append(f"{key}: {value:g} exceeds ceiling {limit:g}")
        else:
            print(f"ok: {key} = {value:g} (ceiling {limit:g})")
    return failures


def check_floors(current: dict, floors: list[tuple[str, float]]) -> list[str]:
    """Absolute ``value >= floor`` gates on the current artifact."""
    failures = []
    for key, floor in floors:
        try:
            value = float(lookup(current, key))
        except (KeyError, TypeError, ValueError):
            failures.append(f"{key}: missing from current artifact")
            continue
        if value < floor:
            failures.append(f"{key}: {value:g} is below floor {floor:g}")
        else:
            print(f"ok: {key} = {value:g} (floor {floor:g})")
    return failures


def unmet_preconditions(
    current: dict, preconditions: list[tuple[str, float]]
) -> list[str]:
    """Human-readable lines for ``--skip-unless`` conditions that fail.

    A missing key counts as unmet — an artifact that does not carry the
    precondition field cannot prove the gate is meaningful.
    """
    unmet = []
    for key, minimum in preconditions:
        try:
            value = float(lookup(current, key))
        except (KeyError, TypeError, ValueError):
            unmet.append(f"{key} missing from current artifact")
            continue
        if value < minimum:
            unmet.append(f"{key} = {value:g} < {minimum:g}")
    return unmet


def parse_ceiling(raw: str) -> tuple[str, float]:
    key, separator, limit = raw.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"expected dotted.key=limit, got {raw!r}"
        )
    try:
        return key, float(limit)
    except ValueError:
        raise argparse.ArgumentTypeError(f"limit in {raw!r} is not a number")


def load_history_baseline(
    ledger: Path, bench: str, workload: str | None, profile: str | None = None
) -> dict:
    """The newest matching ledger entry's metrics document.

    ``profile`` restricts the lookup to entries labeled with that
    workload-ladder rung — small/medium/stress runs of the same bench
    must never compare against each other's baselines.
    """
    if str(Path(__file__).parent) not in sys.path:
        sys.path.insert(0, str(Path(__file__).parent))
    import bench_history

    entry = bench_history.latest_entry(
        bench, workload=workload, profile=profile, path=ledger
    )
    if entry is None:
        scope = f" workload {workload!r}" if workload else ""
        if profile:
            scope += f" profile {profile!r}"
        raise SystemExit(
            f"no ledger entry for bench {bench!r}{scope} in {ledger}"
        )
    rung = f", profile {entry['profile']}" if "profile" in entry else ""
    print(
        f"baseline: ledger entry {entry['git_sha']} "
        f"({entry['recorded_utc']}, workload {entry['workload']}{rung})"
    )
    return entry["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline JSON")
    parser.add_argument("--history", type=Path, default=None,
                        help="bench trend ledger (BENCH_history.jsonl); "
                             "uses the newest matching entry as baseline")
    parser.add_argument("--bench", default=None,
                        help="bench name in the ledger (with --history)")
    parser.add_argument("--workload", default=None,
                        help="restrict the ledger lookup to one workload key")
    parser.add_argument("--profile", default=None,
                        help="restrict the ledger lookup to entries labeled "
                             "with this workload-ladder rung "
                             "(small/medium/stress), so profile rungs of "
                             "the same bench never compare against each "
                             "other's baselines (requires --history)")
    parser.add_argument("--current", type=Path, required=True,
                        help="artifact produced by this run")
    parser.add_argument("--key", action="append", default=[], dest="keys",
                        help="dotted key to compare to baseline (repeatable)")
    parser.add_argument("--key-max", action="append", default=[],
                        dest="ceilings", type=parse_ceiling, metavar="KEY=LIMIT",
                        help="absolute ceiling on a current-artifact key "
                             "(repeatable; no baseline needed)")
    parser.add_argument("--key-min", action="append", default=[],
                        dest="floors", type=parse_ceiling, metavar="KEY=FLOOR",
                        help="absolute floor on a current-artifact key "
                             "(repeatable; no baseline needed) — e.g. "
                             "phase3.phase3_speedup=2.0")
    parser.add_argument("--skip-unless", action="append", default=[],
                        dest="preconditions", type=parse_ceiling,
                        metavar="KEY=MIN",
                        help="skip every check (exit 0) unless this "
                             "current-artifact key is >= MIN — gates "
                             "environment-dependent bounds, e.g. "
                             "phase3.available_cpus=4")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="allowed fractional increase (default 0.10)")
    options = parser.parse_args(argv)

    if not options.keys and not options.ceilings and not options.floors:
        parser.error("nothing to check: pass --key, --key-max and/or --key-min")
    if options.keys and options.baseline is None and options.history is None:
        parser.error("--key needs a baseline: pass --baseline or --history")
    if options.baseline is not None and options.history is not None:
        parser.error("--baseline and --history are mutually exclusive")
    if options.history is not None and options.bench is None:
        parser.error("--history needs --bench")
    if options.profile is not None and options.history is None:
        parser.error("--profile only scopes ledger baselines: pass --history")

    current = json.loads(options.current.read_text(encoding="utf-8"))

    unmet = unmet_preconditions(current, options.preconditions)
    if unmet:
        for line in unmet:
            print(f"skipped: precondition unmet ({line})")
        return 0

    failures = []
    if options.keys:
        if options.history is not None:
            baseline = load_history_baseline(
                options.history, options.bench, options.workload,
                options.profile,
            )
        else:
            baseline = json.loads(options.baseline.read_text(encoding="utf-8"))
        failures.extend(
            check(baseline, current, options.keys, options.max_regression)
        )
    failures.extend(check_ceilings(current, options.ceilings))
    failures.extend(check_floors(current, options.floors))

    for line in failures:
        print(f"REGRESSION {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
