"""Named workload profiles: the ``small`` / ``medium`` / ``stress`` ladder.

A profile is a fixed rung of the workload ladder — a tuple of
:class:`~repro.experiments.workloads.WorkloadSpec` entries that every
benchmark, the passport generator and the sweep runner can resolve by
name.  The ladder gives each perf item a standard workload to prove
itself on and keeps CI, local runs and the tuning loop on identical
datasets (the specs are deterministic functions of their fields).

* ``small``  — all three regions at half the default bench scale with 40
  objects each; finishes in seconds, the CI smoke rung.
* ``medium`` — all three regions at the default bench scale with 300
  objects each; the optimization-loop rung (what the perf benches run).
* ``stress`` — the paper-scale rung: the full-size ATL network with 5000
  objects (~0.8M points, Table II's ATL5000).  Its ``smoke_specs``
  shrink the same shape to a CI-feasible size, whose counters
  ``tests/test_tune.py`` pins.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..experiments.workloads import WorkloadSpec


@dataclass(frozen=True, slots=True)
class WorkloadProfile:
    """One rung of the workload ladder.

    Attributes:
        name: Profile name (``"small"``, ``"medium"``, ``"stress"``).
        description: One-line usage profile (what the rung is for).
        specs: The workloads the profile covers, in region order.
        smoke_specs: CI-feasible stand-ins for profiles whose full specs
            are too large for a smoke run; ``None`` means the full specs
            already are the smoke rung.
    """

    name: str
    description: str
    specs: tuple[WorkloadSpec, ...]
    smoke_specs: tuple[WorkloadSpec, ...] | None = None

    def resolved_specs(self, smoke: bool = False) -> tuple[WorkloadSpec, ...]:
        """The workloads to run: the smoke stand-ins when asked and present."""
        if smoke and self.smoke_specs is not None:
            return self.smoke_specs
        return self.specs

    def bench_spec(self, smoke: bool = False) -> WorkloadSpec:
        """The single workload a one-workload benchmark should run."""
        return self.resolved_specs(smoke=smoke)[0]


#: The committed ladder.  Keep the ``small`` rung CI-cheap: passports,
#: the grid sweep smoke and the tune test suite all run it.
PROFILES: dict[str, WorkloadProfile] = {
    "small": WorkloadProfile(
        name="small",
        description=(
            "smoke rung: every region at half the default bench scale, "
            "40 objects — seconds per run, used by CI and the tune tests"
        ),
        specs=(
            WorkloadSpec("ATL", 40, network_scale=0.05),
            WorkloadSpec("SJ", 40, network_scale=0.05),
            WorkloadSpec("MIA", 40, network_scale=0.01),
        ),
    ),
    "medium": WorkloadProfile(
        name="medium",
        description=(
            "optimization rung: every region at the default bench scale, "
            "300 objects — what the perf benches measure"
        ),
        specs=(
            WorkloadSpec("ATL", 300),
            WorkloadSpec("SJ", 300),
            WorkloadSpec("MIA", 300),
        ),
        smoke_specs=(
            WorkloadSpec("ATL", 100),
            WorkloadSpec("SJ", 100),
            WorkloadSpec("MIA", 100),
        ),
    ),
    "stress": WorkloadProfile(
        name="stress",
        description=(
            "paper-scale rung: full-size ATL with 5000 objects "
            "(Table II's ATL5000, ~0.8M points); smoke shrinks to "
            "150 objects at 0.2 scale for CI"
        ),
        specs=(WorkloadSpec("ATL", 5000, network_scale=1.0),),
        smoke_specs=(WorkloadSpec("ATL", 150, network_scale=0.2),),
    ),
}


def resolve_profile(name: str) -> WorkloadProfile:
    """Look up a profile by name; raises ``ValueError`` on unknown names."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; pick from {sorted(PROFILES)}"
        ) from None


def add_profile_argument(
    parser: argparse.ArgumentParser, default: str | None = None
) -> None:
    """Attach the shared ``--profile`` flag to a CLI or benchmark parser."""
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=default,
        help="named workload profile (the small/medium/stress ladder); "
             "overrides the benchmark's own region/object defaults and "
             "labels ledger entries so profile rungs never compare "
             "against each other's baselines",
    )
