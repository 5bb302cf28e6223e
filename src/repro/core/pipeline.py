"""The NEAT pipeline: base-NEAT, flow-NEAT and opt-NEAT.

Section IV of the paper names three usable variants of the framework:

* **base-NEAT** — Phase 1 only: trajectories become density-sorted base
  clusters (already useful: thresholding them shows where traffic is
  densest, matching what TraClus finds — Section IV-C);
* **flow-NEAT** — Phases 1+2: base clusters merge into flow clusters
  describing dense *and continuous* traffic streams;
* **opt-NEAT** — all three phases: flows within network proximity ``ε`` are
  merged into final trajectory clusters.

:class:`NEAT` runs any of the three over a trajectory set and returns a
:class:`~repro.core.result.NEATResult` with outputs, timings and counters.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..errors import PersistenceError
from ..obs import Telemetry, get_logger
from ..roadnet.io import network_to_dict
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from .base_cluster import form_base_clusters
from .config import NEATConfig
from .flow_formation import form_flow_clusters
from .model import Trajectory, TrajectoryDataset
from .refinement import RefinementStats, refine_flow_clusters
from .result import NEATResult, PhaseTimings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultInjector

#: The three framework variants, in increasing phase count.
MODES = ("base", "flow", "opt")

#: Wire format of resumable phase checkpoints (see NEAT.run_resumable).
PHASE_CHECKPOINT_FORMAT = "repro-phase-checkpoint"
PHASE_CHECKPOINT_VERSION = 1

_log = get_logger("core.pipeline")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _pool_snapshot(metrics) -> dict[str, int] | None:
    """Baseline of the process-wide ``pool.*`` counters for one run."""
    if metrics is None:
        return None
    from ..parallel import pool_counters

    return pool_counters()


def _publish_pool_deltas(metrics, before: dict[str, int] | None) -> None:
    """Publish this run's worker-pool activity as ``pool.*`` counters.

    The pool is a process-wide singleton, so its counters accumulate
    across runs; each run publishes only its own delta into the bound
    metrics registry.  Zero deltas are skipped — a serial run adds no
    ``pool.*`` instruments at all.
    """
    if metrics is None or before is None:
        return
    from ..parallel import pool_counters

    after = pool_counters()
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            metrics.counter(name, _POOL_COUNTER_HELP[name]).inc(delta)


#: Catalogue text for the pool counters (docs/observability.md mirrors it).
_POOL_COUNTER_HELP = {
    "pool.starts": "Worker-pool executor starts (cold starts)",
    "pool.restarts": "Worker-pool restarts (new resources, growth, crashes)",
    "pool.batches": "Parallel batches dispatched to the pool",
    "pool.reuses": "Batches served by already-running workers",
    "pool.tasks": "Individual tasks shipped to workers",
    "pool.bytes_shipped": "Pickled task payload bytes shipped to workers",
    "pool.shm_segments": "Shared-memory segments published",
    "pool.shm_bytes": "Bytes published to shared-memory segments",
    "pool.crash_recoveries": "Batches retried after a worker crash",
    "pool.serial_fallbacks": "Batches that fell back to inline execution",
}


class NEAT:
    """Road-network-aware trajectory clustering (the paper's contribution).

    Args:
        network: The road network the trajectories travel on.
        config: Algorithm parameters; defaults to :class:`NEATConfig`.

    Example:
        >>> from repro.roadnet import line_network
        >>> from repro.core import NEAT, Trajectory, Location
        >>> net = line_network(3)
        >>> trs = [Trajectory(i, (
        ...     Location(0, 10.0, 0.0, 0.0), Location(2, 250.0, 0.0, 60.0),
        ... )) for i in range(4)]
        >>> result = NEAT(net).run(trs, mode="flow")
        >>> result.flow_count
        1
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: NEATConfig | None = None,
        engine: ShortestPathEngine | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else NEATConfig()
        # Shared across runs so Phase 3 amortizes shortest-path work the
        # way a long-lived NEAT server would (Section III-C's incremental
        # online clustering discussion).  Callers can inject an engine,
        # e.g. one backed by a LandmarkOracle for ALT acceleration.
        if engine is not None and engine.directed:
            raise ValueError("Phase 3 needs an undirected engine")
        self.engine = (
            engine if engine is not None
            else ShortestPathEngine(network, directed=False)
        )
        # None (the default) means "fresh enabled telemetry per run", so
        # every NEATResult carries its own isolated snapshot.  Injecting a
        # bundle accumulates across runs; Telemetry.disabled() turns the
        # layer off entirely (PhaseTimings then reads all-zero).
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def run(
        self,
        trajectories: TrajectoryDataset | Sequence[Trajectory] | Iterable[Trajectory],
        mode: str = "opt",
    ) -> NEATResult:
        """Cluster ``trajectories`` with the requested framework variant.

        Args:
            trajectories: A dataset or any iterable of trajectories.
            mode: ``"base"``, ``"flow"`` or ``"opt"``.

        Returns:
            The phase outputs, timings and counters of this run.
        """
        _check_mode(mode)
        return self._drive(self._as_list(trajectories), mode)

    def _drive(
        self,
        trajectory_list: list[Trajectory],
        mode: str,
        result: NEATResult | None = None,
        done: int = -1,
        checkpoint: Callable[[str], None] | None = None,
    ) -> NEATResult:
        """The one phase sequence: Phase 1, 2 and 3, up to ``mode``.

        Every run goes through here, whoever supplies its phases: it
        opens the ``neat.run`` span and one span per phase
        (``PhaseTimings`` is a derived view of their durations), binds
        the engine's metrics, publishes the run's pool deltas and
        snapshots the telemetry into the result.  Phases up to ``done``
        (an index into :data:`MODES`) were restored into ``result`` and
        are skipped, timing zero; ``checkpoint(phase)`` runs after each
        phase computed here.
        """
        if result is None:
            result = NEATResult(mode=mode, timings=PhaseTimings())
        telemetry = (
            self.telemetry if self.telemetry is not None else Telemetry.create()
        )
        tracer = telemetry.tracer
        metrics = telemetry.metrics if telemetry.enabled else None
        # (Re)bind per run: a fresh registry sees per-run deltas even on a
        # warm shared engine; disabled runs unbind so the hot path pays
        # only the None checks.
        self.engine.bind_metrics(metrics)
        phases = (
            functools.partial(self._phase1, trajectory_list),
            self._phase2,
            self._phase3,
        )
        with tracer.span("neat.run"):
            pool_before = _pool_snapshot(metrics)
            try:
                for index in range(done + 1, MODES.index(mode) + 1):
                    phases[index](result, tracer, metrics)
                    if checkpoint is not None:
                        checkpoint(MODES[index])
            finally:
                _publish_pool_deltas(metrics, pool_before)
        if telemetry.enabled:
            result.telemetry = telemetry.snapshot()
        _log.info(
            "run complete",
            mode=mode,
            trajectories=len(trajectory_list),
            resumed_phases=done + 1,
            base_clusters=len(result.base_clusters),
            flows=len(result.flows),
            clusters=len(result.clusters),
            seconds=round(result.timings.total, 6),
        )
        return result

    def _phase1(self, trajectory_list, result, tracer, metrics) -> None:
        with tracer.span("phase1.fragmentation") as span:
            result.base_clusters = self._base_clusters(
                trajectory_list, result, metrics
            )
        result.timings.base = span.duration
        _log.debug(
            "phase1 done",
            base_clusters=len(result.base_clusters),
            seconds=round(span.duration, 6),
        )

    def _base_clusters(self, trajectory_list, result, metrics) -> list:
        """Phase 1's output; the coordinator runs it on its data nodes."""
        return form_base_clusters(
            self.network,
            trajectory_list,
            keep_interior_points=self.config.keep_interior_points,
            metrics=metrics,
        )

    def _phase2(self, result, tracer, metrics) -> None:
        with tracer.span("phase2.flow_formation") as span:
            formation = form_flow_clusters(
                self.network, result.base_clusters, self.config, metrics=metrics
            )
        result.timings.flow = span.duration
        result.flows = formation.flows
        result.noise_flows = formation.noise_flows
        result.min_card_used = formation.min_card_used
        _log.debug(
            "phase2 done",
            flows=len(result.flows),
            noise_flows=len(result.noise_flows),
            min_card=result.min_card_used,
            seconds=round(span.duration, 6),
        )

    def _phase3(self, result, tracer, metrics) -> None:
        stats = RefinementStats()
        with tracer.span("phase3.refinement") as span:
            result.clusters = refine_flow_clusters(
                self.network,
                result.flows,
                self.config,
                engine=self.engine,
                stats=stats,
                metrics=metrics,
                workers=self.config.workers,
                executor=self._phase3_executor(),
            )
        result.timings.refine = span.duration
        result.refinement_stats = stats
        _log.debug(
            "phase3 done",
            clusters=len(result.clusters),
            elb_pruned=stats.elb_pruned,
            sp_computations=stats.shortest_path_computations,
            seconds=round(span.duration, 6),
        )

    def _phase3_executor(self) -> Callable | None:
        """Where Phase 3's planned searches run: None is inline or the pool."""
        return None

    # ------------------------------------------------------------------
    def run_resumable(
        self,
        trajectories,
        mode: str = "opt",
        state_dir: str | Path = ".neat-state",
        *,
        fsync: bool = True,
        faults: "FaultInjector | None" = None,
    ) -> NEATResult:
        """Like :meth:`run`, but checkpointing after every completed phase.

        A sealed phase checkpoint (``state_dir/phases/``) is written after
        Phase 1, Phase 2 and the final phase, keyed by a fingerprint of
        the result-affecting configuration, the network and the input
        trajectories.  A rerun with the same inputs resumes from the
        furthest matching checkpoint — a killed Phase 3 run redoes only
        Phase 3.  A corrupt, torn or mismatched checkpoint is never
        trusted: the run silently recomputes from scratch (and a failed
        checkpoint *write* never fails the run — resumability is
        best-effort, the computation is not).

        Restored phases report zero in ``result.timings`` (nothing was
        recomputed for them).
        """
        from ..persist.store import SnapshotStore
        from .serialize import result_to_dict

        _check_mode(mode)
        trajectory_list = self._as_list(trajectories)
        fingerprint = self._fingerprint(trajectory_list)
        store = SnapshotStore(
            Path(state_dir) / "phases", keep=2, fsync=fsync, faults=faults,
        )
        result, done = self._restore(store, fingerprint, mode)

        def save(phase: str) -> None:
            document = {
                "format": PHASE_CHECKPOINT_FORMAT,
                "version": PHASE_CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "phase": phase,
                "result": result_to_dict(result, self.network.name),
            }
            try:
                store.write(
                    json.dumps(document, sort_keys=True).encode("utf-8"),
                    watermark=MODES.index(phase),
                )
            except (PersistenceError, OSError) as error:
                _log.warning(
                    "phase checkpoint write failed",
                    phase=phase, error=repr(error),
                )

        return self._drive(trajectory_list, mode, result, done, save)

    def _restore(self, store, fingerprint: str, mode: str) -> tuple[NEATResult, int]:
        """The newest matching checkpoint's phases, up to ``mode``.

        Returns the result holding them and the index into :data:`MODES`
        of the furthest restored phase (-1: nothing usable).
        """
        from .serialize import result_from_dict

        result = NEATResult(mode=mode, timings=PhaseTimings())
        try:
            latest = store.read_latest()
        except PersistenceError as error:
            _log.warning("phase checkpoints unreadable", error=repr(error))
            return result, -1
        if latest is None:
            return result, -1
        generation, payload = latest
        try:
            document = json.loads(payload.decode("utf-8"))
            if not (
                document.get("format") == PHASE_CHECKPOINT_FORMAT
                and document.get("version") == PHASE_CHECKPOINT_VERSION
                and document.get("fingerprint") == fingerprint
                and document.get("phase") in MODES
            ):
                return result, -1
            restored = result_from_dict(document["result"], self.network)
        except Exception as error:
            # Undecodable or wrong-shaped checkpoint: recompute.
            _log.warning(
                "phase checkpoint ignored",
                generation=generation.number, error=repr(error),
            )
            return result, -1
        phase = document["phase"]
        done = min(MODES.index(phase), MODES.index(mode))
        result.base_clusters = restored.base_clusters
        if done >= 1:
            result.flows = restored.flows
            result.noise_flows = restored.noise_flows
            result.min_card_used = restored.min_card_used
        if done >= 2:
            result.clusters = restored.clusters
        _log.info(
            "resumed from phase checkpoint",
            phase=phase, generation=generation.number,
        )
        return result, done

    def _fingerprint(self, trajectory_list: list[Trajectory]) -> str:
        """Identity of (config, network, inputs) for checkpoint matching.

        Covers exactly the result-affecting knobs — operational settings
        (workers, retries, deadlines) deliberately excluded, so changing
        them does not invalidate checkpoints.  The network counts by
        content: every junction and every saved segment row, so an
        edited map never resumes a stale checkpoint.  Floats are encoded
        by ``repr``, stable across processes.
        """
        config = self.config
        digest = hashlib.sha256()
        digest.update(json.dumps({
            "wq": config.wq, "wk": config.wk, "wv": config.wv,
            "beta": repr(config.beta), "min_card": config.min_card,
            "eps": config.eps, "min_pts": config.min_pts,
            "use_elb": config.use_elb,
            "keep_interior_points": config.keep_interior_points,
            "network": network_to_dict(self.network),
        }, sort_keys=True).encode("utf-8"))
        for trajectory in trajectory_list:
            digest.update(str(trajectory.trid).encode("utf-8"))
            for location in trajectory.locations:
                digest.update(
                    f"{location.sid},{location.x!r},{location.y!r},"
                    f"{location.t!r},{location.node_id}".encode("utf-8")
                )
        return digest.hexdigest()

    # Convenience wrappers matching the paper's naming -----------------
    def run_base(self, trajectories) -> NEATResult:
        """Phase 1 only (base-NEAT)."""
        return self.run(trajectories, mode="base")

    def run_flow(self, trajectories) -> NEATResult:
        """Phases 1-2 (flow-NEAT)."""
        return self.run(trajectories, mode="flow")

    def run_opt(self, trajectories) -> NEATResult:
        """All three phases (opt-NEAT)."""
        return self.run(trajectories, mode="opt")

    @staticmethod
    def _as_list(trajectories) -> list[Trajectory]:
        if isinstance(trajectories, TrajectoryDataset):
            return list(trajectories.trajectories)
        return list(trajectories)
