"""NEAT algorithm configuration.

Gathers every knob of the three-phase framework in one validated dataclass:
the merging-selectivity weights of Definition 10, the domination threshold
``β`` of Section III-B2, the flow-cardinality filter ``minCard``, and the
Phase 3 refinement distance ``ε`` with its ELB switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError


@dataclass(frozen=True, slots=True)
class NEATConfig:
    """Parameters of the NEAT three-phase clustering framework.

    Attributes:
        wq: Weight of the flow factor ``q`` (Definition 9/10).
        wk: Weight of the density factor ``k``.
        wv: Weight of the speed-limit factor ``v``.  The three weights must
            be non-negative and sum to 1.
        beta: Domination threshold ``β``.  A netflow ``f1`` dominates ``f2``
            when both are positive and ``f1/f2 >= beta``; ``math.inf``
            disables domination handling, making selection purely
            SF/maxFlow-driven (Section III-B2).
        min_card: Minimum trajectory cardinality for a flow cluster to
            survive Phase 2.  ``None`` (the default) uses the paper's
            choice for Figure 3: the mean cardinality over all formed
            flows (= 5 for ATL500 in the paper).
        eps: Phase 3 distance threshold ``ε`` in metres for merging flow
            clusters (the paper uses 6500 m for ATL500).
        min_pts: Minimum neighbour count in the adapted DBSCAN.  The paper
            sets "no minimum cardinality", i.e. 1: every flow belongs to a
            final cluster, singletons included.
        use_elb: Apply the Euclidean-lower-bound filter before shortest
            path computations in Phase 3 (Section III-C3), the paper's one
            prune bound.  Its batched kernel uses numpy when importable
            (:mod:`repro.core.bounds`); clusters and counters are
            identical either way.
        keep_interior_points: Keep original interior samples inside
            t-fragments.  The paper drops them ("only the first and the
            last point in the original trajectory are kept, together with
            the newly inserted road junction points"); keeping them is
            useful for visualization and diagnostics.
        workers: Worker processes for the Phase 3 grouped searches, the
            pipeline's one process fan-out.  ``None`` or ``0`` means one
            per available CPU (the affinity-aware
            :func:`~repro.parallel.available_cpus`); ``1`` (the default)
            runs serially.  Results are identical at any setting —
            parallelism only changes wall-clock time.
        max_retries: Retries after the first attempt for fallible service
            tier operations (ingest, refresh, shard dispatch); 0 tries
            exactly once.  See :class:`repro.resilience.RetryPolicy`.
        deadline_s: Default per-call time budget (seconds) for service
            submit/query operations; ``None`` (the default) means no
            deadline.
        max_pending: Bound on the service's pending-batch queue; a full
            queue rejects new batches with ``ServiceOverloaded``.
        checkpoint_every: Snapshot cadence of the crash-safe persistence
            layer, in batches: when a state directory is attached
            (``IncrementalNEAT.enable_persistence`` / ``--state-dir``), a
            full snapshot generation is written every N-th ingested
            batch.  ``0`` (the default) journals every batch but writes
            snapshots only on explicit ``checkpoint()`` calls.
        slo_ingest_p99_s: Latency SLO for service ingest: the p99 of
            ``service.submit_latency_seconds`` (evaluated over the
            window between watchdog evaluations) must stay at or below
            this many seconds.  While breached the service sheds load —
            the effective pending-queue bound is halved.  ``None`` (the
            default) disables the rule.
        slo_query_p99_s: Latency SLO for service queries: the windowed
            p99 of ``service.query_latency_seconds``.  While breached,
            ``get_clustering`` serves the last validated snapshot
            (flagged ``"stale"``/``"slo_degraded"``) instead of
            refreshing.  ``None`` disables the rule.
    """

    wq: float = 1.0 / 3.0
    wk: float = 1.0 / 3.0
    wv: float = 1.0 / 3.0
    beta: float = math.inf
    min_card: int | None = None
    eps: float = 1000.0
    min_pts: int = 1
    use_elb: bool = True
    keep_interior_points: bool = False
    workers: int | None = 1
    max_retries: int = 2
    deadline_s: float | None = None
    max_pending: int = 64
    checkpoint_every: int = 0
    slo_ingest_p99_s: float | None = None
    slo_query_p99_s: float | None = None

    def __post_init__(self) -> None:
        # Types first, so every range check below compares numbers and a
        # direct construction is held to the same rules as from_dict.
        for field in fields(self):
            value = getattr(self, field.name)
            object.__setattr__(
                self, field.name, _typed_value(field.name, field.type, value)
            )
        for name, weight in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv)):
            if weight < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {weight}")
        total = self.wq + self.wk + self.wv
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ConfigError(
                f"weights must sum to 1 (wq + wk + wv = {total})"
            )
        if self.beta <= 1.0:
            raise ConfigError(
                f"beta must exceed 1 (a flow cannot dominate a larger one), "
                f"got {self.beta}"
            )
        if self.min_card is not None and self.min_card < 0:
            raise ConfigError(f"min_card must be >= 0, got {self.min_card}")
        if self.eps < 0.0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.workers is not None and self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0/None = one per CPU), got {self.workers}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0 when set, got {self.deadline_s}"
            )
        if self.max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0 (0 = explicit checkpoints "
                f"only), got {self.checkpoint_every}"
            )
        for name, slo in (
            ("slo_ingest_p99_s", self.slo_ingest_p99_s),
            ("slo_query_p99_s", self.slo_query_p99_s),
        ):
            if slo is not None and slo <= 0:
                raise ConfigError(
                    f"{name} must be > 0 when set (None disables the "
                    f"rule), got {slo}"
                )

    def to_dict(self) -> dict:
        """JSON-compatible document of every field (``inf`` -> ``"inf"``).

        The inverse of :meth:`from_dict`; the tuning harness commits this
        document as the ``config`` section of a ``best_config`` file.
        """
        document = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and math.isinf(value):
                value = "inf"
            document[field.name] = value
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "NEATConfig":
        """Rebuild a validated config from a :meth:`to_dict` document.

        A config document on disk (tune grids, ``best_config`` files,
        ``repro cluster --config``) must fail loudly, never load with a
        field silently ignored or mistyped.  An unknown key — a typo in a
        tuning grid, or a field an older document still carries that
        NEATConfig no longer has — raises
        :class:`~repro.errors.ConfigError` naming it; value types are
        checked by the constructor (see :func:`_typed_value`).  Missing
        keys keep their defaults, so partial documents work too.
        """
        unknown = sorted(set(document) - {field.name for field in fields(cls)})
        if unknown:
            raise ConfigError(
                f"unknown config fields: {unknown} (misspelled, or retired "
                f"from NEATConfig)"
            )
        return cls(**document)

    def with_weights(self, wq: float, wk: float, wv: float) -> "NEATConfig":
        """A copy with different merging-selectivity weights."""
        return replace(self, wq=wq, wk=wk, wv=wv)

    def with_eps(self, eps: float) -> "NEATConfig":
        """A copy with a different Phase 3 distance threshold."""
        return replace(self, eps=eps)


#: What each annotation accepts, for :func:`_typed_value`'s errors.
_EXPECTED = {"bool": "a bool", "int": "an int", "float": 'a number or "inf"'}


def _typed_value(name: str, annotation: str, value):
    """``value`` checked against a field annotation such as ``"int | None"``.

    A bool field takes a bool, an int field an int that is not a bool, a
    float field an int, a float other than NaN (which JSON readers accept
    and every range check lets through) or ``"inf"`` — returned as a
    float — and an ``X | None`` field also ``None``.  Anything else raises
    :class:`~repro.errors.ConfigError` naming the field.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    if kind == "bool" and isinstance(value, bool):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and isinstance(value, int):
        return value
    if kind == "float" and (number and not math.isnan(value) or value == "inf"):
        return float(value)
    expected = _EXPECTED[kind] + (" or null" if optional else "")
    raise ConfigError(f"config field {name!r} must be {expected}, got {value!r}")


#: Application presets discussed under Definition 10 in the paper.
PRESET_BALANCED = NEATConfig(wq=1.0 / 3.0, wk=1.0 / 3.0, wv=1.0 / 3.0)
PRESET_DENSEST = NEATConfig(wq=0.0, wk=1.0, wv=0.0)
PRESET_FASTEST = NEATConfig(wq=0.0, wk=0.0, wv=1.0)
PRESET_TRAFFIC_MONITORING = NEATConfig(wq=0.5, wk=0.5, wv=0.0)
PRESET_MAX_FLOW = NEATConfig(wq=1.0, wk=0.0, wv=0.0)
