"""Auto-tuning harness: dataset passports, workload profiles, grid sweeps.

NEAT exposes a wide knob surface (the SF weights ``wq/wk/wv``, ``beta``,
``minCard``, ``eps``, the ELB switch, worker count, ...) and nothing in
the bench suite tunes it systematically.
This package turns the benchmark harness into an optimization loop:

* :mod:`repro.tune.passport` — per-dataset/per-network sanity statistics
  (trajectory counts, point densities, segment-length and degree
  distributions, SF-component ranges), one JSON passport per dataset plus
  a summary CSV;
* :mod:`repro.tune.profiles` — the named workload ladder
  (``small`` / ``medium`` / ``stress``) layered on
  :mod:`repro.experiments.workloads` and selectable from the CLI and every
  benchmark via a shared ``--profile`` flag;
* :mod:`repro.tune.grid` — the committed ``tune_grid.yaml`` loader, the
  deterministic grid expansion and the objective scoring
  (runtime minimization under cluster-quality guardrails);
* :mod:`repro.tune.sweep` — the sweep runner: reuses the benchmark
  harness and metrics registry, writes one ``best_config`` JSON per
  network plus a results doc, and feeds the bench trend ledger.

See ``docs/tuning.md`` for the workflow.
"""

from .grid import expand_grid, load_grid, overlay_config, pick_best, score_rows
from .passport import (
    build_passport,
    dataset_passport,
    network_passport,
    passports_artifact,
    summary_csv,
    write_passport,
)
from .profiles import (
    PROFILES,
    WorkloadProfile,
    add_profile_argument,
    resolve_profile,
)
from .sweep import (
    best_config_to_neat,
    cluster_digest,
    reproduce_best_config,
    run_sweep,
)

__all__ = [
    "PROFILES",
    "WorkloadProfile",
    "add_profile_argument",
    "best_config_to_neat",
    "build_passport",
    "cluster_digest",
    "dataset_passport",
    "expand_grid",
    "load_grid",
    "network_passport",
    "overlay_config",
    "passports_artifact",
    "pick_best",
    "reproduce_best_config",
    "resolve_profile",
    "run_sweep",
    "score_rows",
    "summary_csv",
    "write_passport",
]
