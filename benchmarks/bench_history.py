"""Bench trend ledger: an append-only history of benchmark artifacts.

Every CI perf job ends by appending its freshly produced ``BENCH_*.json``
artifact to the committed ledger ``benchmarks/history/BENCH_history.jsonl``
— one JSON object per line carrying the bench name, a workload key, the
git revision, a UTC timestamp and the full metrics document.  A
repository-benchmark run record (``neatbench/out/<stem>.json``) appends
the same way, as bench ``neatbench``: keyed by its workload (traced runs
as ``<workload>/trace``), stamped with the git revision it measured, and
carrying the result's metric values plus ``cpu_count`` and ``digest``.
The ledger is the longitudinal record the single-baseline regression
gate cannot give: ``report`` renders a markdown trend table per bench/workload, and
``check_perf_regression.py --history`` gates a fresh artifact against
the *latest* ledger entry instead of a static baseline file.

Subcommands::

    python benchmarks/bench_history.py append --artifact output/BENCH_sp_core.json
    python benchmarks/bench_history.py append --artifact neatbench/out/batch_dense-seed7-trace0.json
    python benchmarks/bench_history.py report [--bench sp_core] [--out trend.md]
    python benchmarks/bench_history.py latest --bench sp_core [--workload ...]
    python benchmarks/bench_history.py verify

``append`` derives the bench name from the artifact filename
(``BENCH_<name>.json``) and the workload key from the document's
``network``/``objects`` fields unless ``--workload`` overrides it, so
the same bench tracked at several scales gets separate trend lines.
``verify`` is the CI check: the ledger must parse, every entry must be
well-formed, and every known bench must have at least one entry.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
LEDGER = BENCH_DIR / "history" / "BENCH_history.jsonl"

#: Benches the ledger must cover (CI appends most of them on every run;
#: neatbench runs are appended by hand); ``verify`` fails when any of
#: them has no ledger entry at all.
KNOWN_BENCHES = (
    "distributed_ingest",
    "neatbench",
    "observability_overhead",
    "passports",
    "sp_core",
    "tune_sweep",
)

REQUIRED_FIELDS = ("bench", "workload", "git_sha", "recorded_utc", "metrics")


def bench_name(artifact: Path) -> str:
    """``BENCH_sp_core.json`` -> ``sp_core``."""
    stem = artifact.stem
    if not stem.startswith("BENCH_"):
        raise ValueError(
            f"artifact {artifact.name!r} does not follow BENCH_<name>.json"
        )
    return stem[len("BENCH_"):]


def _workload_parts(document: dict) -> list[str]:
    parts = []
    for field in ("network", "region"):
        value = document.get(field)
        if isinstance(value, str):
            parts.append(value)
            break
    for field in ("objects", "queries", "batches"):
        value = document.get(field)
        if isinstance(value, (int, float)):
            parts.append(f"{field}={value:g}")
    return parts


def workload_key(document: dict) -> str:
    """A stable per-scale key from the artifact's own workload fields.

    Artifacts that nest their measurements (e.g. ``BENCH_sp_core`` with
    its ``microbench``/``phase3`` sections) are keyed from the first
    section that carries workload fields.
    """
    parts = _workload_parts(document)
    if not parts:
        for name in sorted(document):
            if isinstance(document[name], dict):
                parts = _workload_parts(document[name])
                if parts:
                    break
    return "/".join(parts) if parts else "default"


def is_neatbench_record(document: dict) -> bool:
    """Whether an artifact is a ``neatbench/run.py`` run record."""
    return isinstance(document.get("environment"), dict) and isinstance(
        document.get("result"), dict
    )


def neatbench_fields(document: dict) -> tuple[str, str, dict]:
    """(workload key, git revision, metrics) of a neatbench run record.

    Traced runs measure a different metric set (per-layer self times),
    so they get their own series.  The revision is the one the run
    stamped, marked ``-dirty`` when its tree had uncommitted changes.
    """
    result = document["result"]
    if result.get("correct") is not True:
        raise ValueError("neatbench record did not pass its correctness gates")
    stamp = document["environment"]
    workload = document["workload"]
    if "layer_self_s" in document:
        workload += "/trace"
    sha = str(stamp["git_sha"])[:7] + ("-dirty" if stamp.get("git_dirty") else "")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    metrics["cpu_count"] = stamp["cpu_count"]
    metrics["digest"] = document["digest"]
    return workload, sha, metrics


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_DIR, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_ledger(path: Path = LEDGER) -> list[dict]:
    """Parse the ledger; raises ValueError on any malformed line."""
    if not path.exists():
        return []
    entries = []
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path.name}:{number}: not JSON ({error})")
        if not isinstance(entry, dict):
            raise ValueError(f"{path.name}:{number}: entry is not an object")
        missing = [f for f in REQUIRED_FIELDS if f not in entry]
        if missing:
            raise ValueError(
                f"{path.name}:{number}: missing fields {missing}"
            )
        entries.append(entry)
    return entries


def append_entry(
    artifact: Path,
    workload: str | None = None,
    sha: str | None = None,
    recorded_utc: str | None = None,
    profile: str | None = None,
    path: Path = LEDGER,
) -> dict:
    """Append one artifact to the ledger; returns the written entry.

    ``artifact`` is a ``BENCH_<name>.json`` document or a neatbench run
    record (see :func:`neatbench_fields`).  ``profile`` labels the entry
    with its workload-ladder rung (small/medium/stress) so a stress smoke
    never becomes the baseline a small run is gated against —
    ``latest_entry`` filters on it.
    """
    document = json.loads(artifact.read_text(encoding="utf-8"))
    if is_neatbench_record(document):
        bench = "neatbench"
        key, stamped_sha, metrics = neatbench_fields(document)
    else:
        bench, key, stamped_sha, metrics = (
            bench_name(artifact), workload_key(document), None, document
        )
    entry = {
        "bench": bench,
        "workload": workload or key,
        "git_sha": sha or stamped_sha or git_sha(),
        "recorded_utc": recorded_utc
        or datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "metrics": metrics,
    }
    if profile is not None:
        entry["profile"] = profile
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def latest_entry(
    bench: str,
    workload: str | None = None,
    profile: str | None = None,
    path: Path = LEDGER,
) -> dict | None:
    """The newest ledger entry for a bench (optionally one workload).

    With ``profile``, only entries labeled with exactly that profile
    match — runs of the same bench at different ladder rungs must never
    compare against each other's baselines.
    """
    found = None
    for entry in load_ledger(path):
        if entry["bench"] != bench:
            continue
        if workload is not None and entry["workload"] != workload:
            continue
        if profile is not None and entry.get("profile") != profile:
            continue
        found = entry  # append-only: last match is newest
    return found


def _lookup(metrics: dict, dotted: str):
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def _trend_keys(metrics: dict) -> list[str]:
    """Dotted numeric keys (depth <= 2), the ones worth a trend column."""
    keys = []
    for name, value in metrics.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            keys.append(name)
        elif isinstance(value, dict):
            keys.extend(
                f"{name}.{inner}" for inner, leaf in value.items()
                if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
            )
    return sorted(keys)


def render_report(entries: list[dict], bench: str | None = None) -> str:
    """Markdown trend tables, one per (bench, workload, profile) series."""
    series: dict[tuple[str, str, str], list[dict]] = {}
    for entry in entries:
        if bench is not None and entry["bench"] != bench:
            continue
        key = (entry["bench"], entry["workload"], entry.get("profile") or "")
        series.setdefault(key, []).append(entry)
    if not series:
        scope = f" for bench {bench!r}" if bench else ""
        return f"# Bench trends\n\nNo ledger entries{scope}.\n"

    lines = ["# Bench trends", ""]
    for (name, workload, profile), rows in sorted(series.items()):
        keys = _trend_keys(rows[-1]["metrics"])
        rung = f", profile {profile}" if profile else ""
        lines.append(f"## {name} ({workload}{rung})")
        lines.append("")
        lines.append("| recorded (UTC) | git | " + " | ".join(keys) + " |")
        lines.append("|---" * (2 + len(keys)) + "|")
        previous = None
        for row in rows:
            cells = [row["recorded_utc"], f"`{row['git_sha']}`"]
            for key in keys:
                value = _lookup(row["metrics"], key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    cells.append("—")
                    continue
                cell = f"{value:g}"
                if previous is not None:
                    before = _lookup(previous["metrics"], key)
                    if (
                        isinstance(before, (int, float))
                        and not isinstance(before, bool)
                        and before != 0
                    ):
                        delta = (value - before) / abs(before) * 100.0
                        if abs(delta) >= 0.005:
                            cell += f" ({delta:+.1f}%)"
                cells.append(cell)
            lines.append("| " + " | ".join(cells) + " |")
            previous = row
        lines.append("")
    return "\n".join(lines)


def verify(path: Path = LEDGER) -> list[str]:
    """Return one failure line per problem (empty list == healthy)."""
    try:
        entries = load_ledger(path)
    except ValueError as error:
        return [str(error)]
    if not entries:
        return [f"{path} is missing or empty"]
    problems = []
    covered = {entry["bench"] for entry in entries}
    for bench in KNOWN_BENCHES:
        if bench not in covered:
            problems.append(f"no ledger entry for bench {bench!r}")
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry["metrics"], dict) or not entry["metrics"]:
            problems.append(f"entry {index} ({entry['bench']}): empty metrics")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger", type=Path, default=LEDGER,
        help="ledger path (default benchmarks/history/BENCH_history.jsonl)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    append_cmd = commands.add_parser(
        "append",
        help="append one BENCH_*.json artifact or neatbench run record",
    )
    append_cmd.add_argument("--artifact", type=Path, required=True)
    append_cmd.add_argument(
        "--workload", default=None,
        help="override the workload key derived from the artifact",
    )
    append_cmd.add_argument(
        "--profile", default=None,
        help="label the entry with its workload-ladder rung "
             "(small/medium/stress); profile-filtered baselines never "
             "cross rungs",
    )

    report_cmd = commands.add_parser(
        "report", help="render the markdown trend report"
    )
    report_cmd.add_argument("--bench", default=None)
    report_cmd.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this file",
    )

    latest_cmd = commands.add_parser(
        "latest", help="print the newest entry's metrics document"
    )
    latest_cmd.add_argument("--bench", required=True)
    latest_cmd.add_argument("--workload", default=None)
    latest_cmd.add_argument("--profile", default=None)

    commands.add_parser("verify", help="CI health check for the ledger")

    options = parser.parse_args(argv)

    if options.command == "append":
        entry = append_entry(
            options.artifact, workload=options.workload,
            profile=options.profile, path=options.ledger,
        )
        label = f", profile {entry['profile']}" if "profile" in entry else ""
        print(
            f"appended {entry['bench']} ({entry['workload']}{label}) "
            f"@ {entry['git_sha']} to {options.ledger}"
        )
        return 0

    if options.command == "report":
        text = render_report(load_ledger(options.ledger), bench=options.bench)
        if options.out is not None:
            options.out.parent.mkdir(parents=True, exist_ok=True)
            options.out.write_text(text + "\n", encoding="utf-8")
            print(f"wrote {options.out}")
        else:
            print(text)
        return 0

    if options.command == "latest":
        entry = latest_entry(
            options.bench, workload=options.workload,
            profile=options.profile, path=options.ledger,
        )
        if entry is None:
            print(
                f"no ledger entry for bench {options.bench!r}",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(entry["metrics"], indent=2, sort_keys=True))
        return 0

    problems = verify(options.ledger)
    for line in problems:
        print(f"LEDGER {line}", file=sys.stderr)
    if not problems:
        entries = load_ledger(options.ledger)
        print(
            f"ledger ok: {len(entries)} entries, "
            f"{len({e['bench'] for e in entries})} benches"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
