"""Incremental (online) NEAT clustering.

Section III-C of the paper motivates the Phase 3 design with exactly this
deployment: "the first two phases of NEAT can be performed on each newly
arrived set of trajectories.  The new flow clusters are then merged with
the available flow clusters to produce compact clustering results."

:class:`IncrementalNEAT` implements that loop.  Each ``add_batch`` runs
Phases 1-2 on the newly arrived trajectories only, appends the resulting
flows to the retained flow pool, and re-refines the pool with the adapted
DBSCAN — reusing one memoized shortest-path engine across batches, so the
network distances Phase 3 needs are increasingly cache hits (the warm
server behaviour the paper's NEAT service assumes).

Trajectory ids must be unique across batches; the class offsets them
automatically when asked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import CorruptSnapshot, PersistenceError, RecoveryError, ReproError
from ..obs import Telemetry, get_logger
from ..persist.checkpoint import (
    CheckpointManager,
    encode_state_payload,
    open_state_document,
    seal_state_document,
)
from ..persist.distcache import load_distance_cache, save_distance_cache
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from .base_cluster import form_base_clusters
from .config import NEATConfig
from .flow_cluster import FlowCluster
from .flow_formation import form_flow_clusters
from .model import Trajectory
from .refinement import RefinementStats, TrajectoryCluster, refine_flow_clusters
from .result import NEATResult
from .serialize import (
    FORMAT_TAG,
    FORMAT_VERSION,
    _cluster_to_dict,
    _flow_to_dict,
    result_from_dict,
)
from .validate import validate_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultInjector

_log = get_logger("core.incremental")


@dataclass
class BatchResult:
    """Outcome of one ``add_batch`` call.

    Attributes:
        batch_index: 0-based index of the batch.
        new_flows: Flows formed from this batch alone (post-``minCard``).
        new_noise_flows: This batch's flows filtered by ``minCard``.
        clusters: The refreshed global clustering over all retained flows.
        refinement_stats: Phase 3 instrumentation for this refresh.
    """

    batch_index: int
    new_flows: list[FlowCluster] = field(default_factory=list)
    new_noise_flows: list[FlowCluster] = field(default_factory=list)
    clusters: list[TrajectoryCluster] = field(default_factory=list)
    refinement_stats: RefinementStats = field(default_factory=RefinementStats)


class IncrementalNEAT:
    """Online NEAT over a stream of trajectory batches.

    Args:
        network: The road network.
        config: NEAT parameters.  ``min_card`` applies per batch; the
            Phase 3 ``eps``/``min_pts``/``use_elb`` settings apply to every
            refresh of the global clustering.
        telemetry: Optional :class:`~repro.obs.Telemetry` bundle.  Unlike
            the batch pipeline, the incremental clusterer is long-lived,
            so one bundle accumulates across every ``add_batch`` — its
            ``incremental.*`` counters and latency histogram describe the
            whole stream.  Defaults to a fresh enabled bundle.

    Example:
        >>> from repro.roadnet import line_network
        >>> from repro.core import NEATConfig
        >>> inc = IncrementalNEAT(line_network(3), NEATConfig(min_card=0))
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: NEATConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else NEATConfig()
        self.engine = ShortestPathEngine(network, directed=False)
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        if self.telemetry.enabled:
            self.engine.bind_metrics(self.telemetry.metrics)
        self._flows: list[FlowCluster] = []
        self._noise_flows: list[FlowCluster] = []
        self._clusters: list[TrajectoryCluster] = []
        self._batches = 0
        self._seen_trids: set[int] = set()
        self._persist: CheckpointManager | None = None
        self._checkpoint_every = max(0, self.config.checkpoint_every)
        self._replaying = False
        self._persist_fsync = True
        self._persist_faults: "FaultInjector | None" = None
        # (exact, bounded) memo-table sizes at the last distance-cache
        # save; an unchanged cache is not rewritten.
        self._distcache_saved: tuple[int, int] | None = None
        # Serialization memos for repeated checkpoints; base clusters and
        # flows are immutable once committed, so only state new since the
        # last snapshot costs anything (entry-dict memo for the document,
        # rendered-bytes memo for the payload, and an incremental document
        # builder that only absorbs flows appended since the last call).
        self._fragment_cache: dict[int, Any] = {}
        self._fragment_text_cache: dict[int, Any] = {}
        self._doc_memo: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    @property
    def flows(self) -> list[FlowCluster]:
        """All retained flows across batches, in arrival order."""
        return list(self._flows)

    @property
    def noise_flows(self) -> list[FlowCluster]:
        """Sub-``minCard`` flows across batches, in arrival order."""
        return list(self._noise_flows)

    @property
    def clusters(self) -> list[TrajectoryCluster]:
        """The current global clustering."""
        return list(self._clusters)

    @property
    def batch_count(self) -> int:
        """Number of batches ingested."""
        return self._batches

    # ------------------------------------------------------------------
    def add_batch(
        self,
        trajectories: Sequence[Trajectory],
        auto_offset_ids: bool = False,
    ) -> BatchResult:
        """Ingest a batch, update the global clustering, return the delta.

        Args:
            trajectories: Newly arrived trajectories.
            auto_offset_ids: Re-id the batch's trajectories past every id
                seen so far.  Without it, a duplicate id raises
                ``ValueError`` — cross-batch netflow would silently merge
                unrelated objects otherwise.
        """
        batch = list(trajectories)
        if auto_offset_ids:
            batch = self._offset_ids(batch)
        else:
            duplicate = {tr.trid for tr in batch} & self._seen_trids
            if duplicate:
                raise ValueError(
                    f"trajectory ids seen in earlier batches: {sorted(duplicate)[:5]}"
                    " (pass auto_offset_ids=True to re-id)"
                )

        # Snapshot mutable state so a mid-batch failure (bad input deep in
        # a phase, injected fault in a chaos drill) leaves the clusterer
        # exactly as it was: ingestion is all-or-nothing per batch, which
        # is what lets the service tier retry or queue a failed batch.
        rollback = (
            list(self._flows),
            list(self._noise_flows),
            list(self._clusters),
            set(self._seen_trids),
            self._batches,
        )
        self._seen_trids.update(tr.trid for tr in batch)

        result = BatchResult(batch_index=self._batches)
        self._batches += 1

        telemetry = self.telemetry
        metrics = telemetry.metrics if telemetry.enabled else None
        try:
            with telemetry.tracer.span("incremental.add_batch") as batch_span:
                if batch:
                    base = form_base_clusters(
                        self.network, batch,
                        keep_interior_points=self.config.keep_interior_points,
                        metrics=metrics,
                    )
                    formation = form_flow_clusters(
                        self.network, base, self.config, metrics=metrics
                    )
                    result.new_flows = formation.flows
                    result.new_noise_flows = formation.noise_flows
                    self._flows.extend(formation.flows)
                    self._noise_flows.extend(formation.noise_flows)

                stats = RefinementStats()
                with telemetry.tracer.span("incremental.refresh"):
                    self._clusters = refine_flow_clusters(
                        self.network, self._flows, self.config,
                        engine=self.engine, stats=stats, metrics=metrics,
                    )

                # Journal the batch *inside* the rollback scope: if the
                # append fails (disk fault, injected crash) the batch is
                # undone in memory too, so acknowledged == durable.
                # Replayed batches are already in the journal.
                if self._persist is not None and not self._replaying:
                    with telemetry.tracer.span("incremental.journal"):
                        self._persist.record_batch(result.batch_index, batch)
        except BaseException:
            (
                self._flows,
                self._noise_flows,
                self._clusters,
                self._seen_trids,
                self._batches,
            ) = rollback
            if metrics is not None:
                metrics.inc(
                    "incremental.rolled_back_batches",
                    description="Batches undone after a mid-ingest failure",
                )
            _log.warning("batch rolled back", batch=result.batch_index)
            raise
        result.clusters = list(self._clusters)
        result.refinement_stats = stats

        if metrics is not None:
            metrics.counter(
                "incremental.batches", "Trajectory batches ingested"
            ).inc()
            metrics.counter(
                "incremental.trajectories", "Trajectories ingested across batches"
            ).inc(len(batch))
            metrics.gauge(
                "incremental.retained_flows", "Flows in the retained pool"
            ).set(len(self._flows))
            metrics.histogram(
                "incremental.batch_seconds",
                "End-to-end add_batch latency (Phases 1-2 plus refresh)",
            ).observe(batch_span.duration)
        _log.debug(
            "batch ingested",
            batch=result.batch_index,
            trajectories=len(batch),
            new_flows=len(result.new_flows),
            clusters=len(result.clusters),
            seconds=round(batch_span.duration, 6),
        )
        # Auto-checkpoint *after* the batch committed (journal fsynced):
        # a failed snapshot write must never undo a journaled batch — the
        # journal alone already makes it durable.
        if (
            self._persist is not None
            and not self._replaying
            and self._checkpoint_every > 0
            and self._batches % self._checkpoint_every == 0
        ):
            self.checkpoint()
        # Spill the engine's memo table so a restart warm-starts Phase 3.
        # Best-effort and outside the rollback scope: the journal is the
        # durable source of truth, the distance cache only saves work.
        if self._persist is not None and not self._replaying:
            self.save_distance_cache()
        return result

    def _offset_ids(self, batch: list[Trajectory]) -> list[Trajectory]:
        offset = (max(self._seen_trids) + 1) if self._seen_trids else 0
        reindexed = []
        for index, trajectory in enumerate(batch):
            reindexed.append(
                Trajectory(offset + index, trajectory.locations)
            )
        return reindexed

    # ------------------------------------------------------------------
    # Durability: checkpoint / journal / recover (docs/robustness.md)
    # ------------------------------------------------------------------
    @property
    def state_dir(self) -> Path | None:
        """The configured state directory (None: persistence disabled)."""
        return self._persist.state_dir if self._persist is not None else None

    @property
    def distcache_path(self) -> Path | None:
        """Where the persistent distance cache lives (None: disabled)."""
        if self._persist is None:
            return None
        return self._persist.state_dir / "distcache.snap"

    def save_distance_cache(self) -> int | None:
        """Persist the shortest-path memo table, best-effort.

        Returns the entry count written, ``None`` when persistence is
        disabled, the cache is unchanged since the last save, or the
        write failed (failure is logged and counted, never raised — the
        cache only ever saves work, durability comes from the journal).
        """
        path = self.distcache_path
        if path is None:
            return None
        exact, bounded = self.engine.export_cache()
        sizes = (len(exact), len(bounded))
        if sizes == self._distcache_saved:
            return None
        metrics = self.telemetry.metrics if self.telemetry.enabled else None
        try:
            with self.telemetry.tracer.span("incremental.distcache"):
                entries = save_distance_cache(
                    path,
                    self.engine,
                    fsync=self._persist_fsync,
                    metrics=metrics,
                    faults=self._persist_faults,
                )
        except Exception as error:
            if metrics is not None:
                metrics.inc(
                    "sp.cache.save_failures",
                    description="Distance-cache writes that failed",
                )
            _log.warning("distance-cache save failed", error=repr(error))
            return None
        self._distcache_saved = sizes
        return entries

    def enable_persistence(
        self,
        state_dir: str | Path,
        checkpoint_every: int | None = None,
        *,
        keep: int = 3,
        fsync: bool = True,
        faults: "FaultInjector | None" = None,
    ) -> CheckpointManager:
        """Attach a state directory: journal every batch, checkpoint on cadence.

        From this call on, every successful ``add_batch`` is journaled
        before it is acknowledged (a journal failure rolls the batch
        back), and a snapshot generation is written every
        ``checkpoint_every`` batches (0 = only on explicit
        :meth:`checkpoint` calls; default comes from
        ``config.checkpoint_every``).  Each committed batch also spills
        the shortest-path memo table to ``distcache.snap`` (best-effort,
        skipped when unchanged), so :meth:`recover` warm-starts Phase 3
        instead of recomputing distances.

        Args:
            state_dir: Directory holding ``snapshots/`` and ``journal.wal``.
            checkpoint_every: Override the config's snapshot cadence.
            keep: Snapshot generations retained for fallback.
            fsync: Durability barrier on every journal append / snapshot.
            faults: Optional injector driving the ``snapshot.*`` /
                ``journal.*`` fault points (recovery gauntlet).
        """
        metrics = self.telemetry.metrics if self.telemetry.enabled else None
        self._persist = CheckpointManager(
            state_dir, keep=keep, fsync=fsync, faults=faults, metrics=metrics,
        )
        self._persist_fsync = fsync
        self._persist_faults = faults
        if checkpoint_every is not None:
            self._checkpoint_every = max(0, int(checkpoint_every))
        _log.info(
            "persistence enabled",
            state_dir=str(self._persist.state_dir),
            checkpoint_every=self._checkpoint_every,
        )
        return self._persist

    def checkpoint(self, state_dir: str | Path | None = None) -> int:
        """Write a snapshot of the full state; returns the generation number.

        Args:
            state_dir: One-shot target; when given and different from the
                configured directory, persistence is (re)attached to it.

        Raises:
            PersistenceError: No state directory is configured, or the
                write failed in a way that left no new generation.
        """
        if state_dir is not None and (
            self._persist is None
            or Path(state_dir) != self._persist.state_dir
        ):
            self.enable_persistence(state_dir)
        if self._persist is None:
            raise PersistenceError(
                "no state directory configured: call enable_persistence() "
                "or pass state_dir"
            )
        with self.telemetry.tracer.span("incremental.checkpoint"):
            generation = self._persist.write_checkpoint(
                self._state_document(),
                text_cache=self._fragment_text_cache,
            )
        # A checkpoint captures the distance cache too, so a recovery
        # that replays nothing still warm-starts later refreshes.
        self.save_distance_cache()
        _log.info(
            "checkpoint written", generation=generation, watermark=self._batches
        )
        return generation

    @classmethod
    def recover(
        cls,
        state_dir: str | Path,
        network: RoadNetwork,
        config: NEATConfig | None = None,
        telemetry: Telemetry | None = None,
        *,
        keep: int = 3,
        fsync: bool = True,
        faults: "FaultInjector | None" = None,
        checkpoint_every: int | None = None,
    ) -> "IncrementalNEAT":
        """Rebuild a clusterer from a state directory: snapshot + replay.

        Recovery restores the newest verified snapshot generation (falling
        back to an older one when the newest is torn or corrupt), then
        re-applies the journaled batches past its watermark through the
        normal ``add_batch`` path — so a replay failure rolls back like
        any other ingest failure and surfaces as :class:`RecoveryError`.
        The recovered instance keeps persisting to the same directory.

        Raises:
            CorruptSnapshot: No snapshot generation verifies, or a journal
                record is undecodable / out of sequence.
            RecoveryError: The on-disk state decodes but cannot be
                re-applied (wrong network, replay failure).
        """
        clusterer = cls(network, config, telemetry)
        metrics = (
            clusterer.telemetry.metrics if clusterer.telemetry.enabled else None
        )
        manager = CheckpointManager(
            state_dir, keep=keep, fsync=fsync, faults=faults, metrics=metrics,
        )
        # Warm the shortest-path engine *before* journal replay: with an
        # unchanged network (same CSR mutation version) every distance
        # the replayed refreshes need is already cached, so recovery
        # performs zero shortest-path computations.  Best-effort — a
        # missing or stale cache just means a cold engine.
        warm_entries = load_distance_cache(
            manager.state_dir / "distcache.snap",
            clusterer.engine,
            metrics=metrics,
            faults=faults,
        )
        if warm_entries is not None:
            # Baseline the dirty check at the file's content: if replay
            # computes nothing new, the post-recovery save below no-ops.
            exact, bounded = clusterer.engine.export_cache()
            clusterer._distcache_saved = (len(exact), len(bounded))
        try:
            recovered = manager.load()
            if recovered.state is not None:
                clusterer._restore_state(recovered.state, manager.state_dir)
            for seq, trajectories in recovered.batches:
                clusterer._replaying = True
                try:
                    applied = clusterer.add_batch(
                        trajectories, auto_offset_ids=False
                    )
                finally:
                    clusterer._replaying = False
                if applied.batch_index != seq:
                    raise RecoveryError(
                        state_dir,
                        f"replayed batch landed at index {applied.batch_index}"
                        f", journal says {seq}",
                    )
                if metrics is not None:
                    metrics.inc(
                        "persist.journal_replayed_batches",
                        description=(
                            "Journaled batches re-applied during recovery"
                        ),
                    )
        except PersistenceError:
            if metrics is not None:
                metrics.inc(
                    "persist.recovery_failures",
                    description="Recoveries aborted with a typed error",
                )
            raise
        except Exception as error:
            if metrics is not None:
                metrics.inc(
                    "persist.recovery_failures",
                    description="Recoveries aborted with a typed error",
                )
            raise RecoveryError(
                state_dir, f"journal replay failed: {error!r}"
            ) from error
        clusterer._persist = manager
        clusterer._persist_fsync = fsync
        clusterer._persist_faults = faults
        # Capture whatever replay had to compute (no-op when the warm
        # cache already covered it).
        clusterer.save_distance_cache()
        if checkpoint_every is not None:
            clusterer._checkpoint_every = max(0, int(checkpoint_every))
        if metrics is not None:
            metrics.inc(
                "persist.recoveries",
                description="Successful state recoveries from a state dir",
            )
        _log.info(
            "state recovered",
            state_dir=str(manager.state_dir),
            generation=recovered.generation,
            snapshot_batches=recovered.watermark,
            replayed_batches=len(recovered.batches),
            torn_tail=recovered.torn_tail,
        )
        return clusterer

    # ------------------------------------------------------------------
    def snapshot_result(self) -> NEATResult:
        """A :class:`NEATResult` view of the current *served* state.

        Covers the retained flows only: noise flows were filtered per
        batch (possibly under different auto thresholds), so including
        them could not satisfy a single global ``minCard`` — the served
        clustering is the kept-flow world, self-consistent by
        construction.  (The durable state document, by contrast, carries
        the noise flows too — see :meth:`checkpoint`.)
        """
        result = NEATResult(mode="opt")
        members = [member for flow in self._flows for member in flow.members]
        result.base_clusters = sorted(
            members, key=lambda cluster: (-cluster.density, cluster.sid)
        )
        result.flows = list(self._flows)
        result.clusters = list(self._clusters)
        cards = [flow.trajectory_cardinality for flow in result.flows]
        result.min_card_used = min(cards) if cards else 0
        return result

    def _state_document(self) -> dict[str, Any]:
        """The full durable state (flows, noise flows, clusters, id space).

        The document is built *incrementally*: flow pools only ever
        append (a rollback replaces the list object, which resets the
        memo; recovery seeds it in the recovered document's order), so
        each call serializes just the flows added since the last one and
        re-emits the already-built entries.  The schema is
        ``result_to_dict``'s — the entry builders are shared.
        """
        memo = self._doc_memo
        flows, noise_flows = self._flows, self._noise_flows
        if (
            memo is None
            or memo["flows"] is not flows
            or memo["flows_done"] > len(flows)
            or memo["noise"] is not noise_flows
            or memo["noise_done"] > len(noise_flows)
        ):
            memo = self._reset_doc_memo()
        base_entries = memo["base_entries"]
        base_index = memo["base_index"]

        def absorb(pool: list[FlowCluster], done: int, entries: list[Any]) -> None:
            for flow in pool[done:]:
                for member in flow.members:
                    # Members are pinned by the fragment cache, so a live
                    # id() here always means this exact cluster.
                    if id(member) not in base_index:
                        base_index[id(member)] = len(base_entries)
                        base_entries.append(
                            _cluster_to_dict(member, self._fragment_cache)
                        )
                entries.append(_flow_to_dict(flow, base_index))

        flow_index = memo["flow_index"]
        for i in range(memo["flows_done"], len(flows)):
            flow_index[id(flows[i])] = i
        absorb(flows, memo["flows_done"], memo["flow_entries"])
        absorb(noise_flows, memo["noise_done"], memo["noise_entries"])
        memo["flows_done"] = len(flows)
        memo["noise_done"] = len(noise_flows)

        cards = [flow.trajectory_cardinality for flow in flows]
        result_document = {
            "format": FORMAT_TAG,
            "version": FORMAT_VERSION,
            "mode": "opt",
            "min_card_used": min(cards) if cards else 0,
            "network_name": self.network.name,
            "stale": False,
            "dropped_shards": [],
            "base_clusters": list(base_entries),
            "flows": list(memo["flow_entries"]),
            "noise_flows": list(memo["noise_entries"]),
            "clusters": [
                {
                    "cluster_id": cluster.cluster_id,
                    "flow_indices": [
                        flow_index[id(flow)] for flow in cluster.flows
                    ],
                }
                for cluster in self._clusters
            ],
        }
        return seal_state_document(
            watermark=self._batches,
            seen_trids=self._seen_trids,
            network_name=self.network.name,
            result_document=result_document,
        )

    def _reset_doc_memo(self, base_clusters: Sequence[Any] = ()) -> dict[str, Any]:
        """A fresh document memo whose base entries start with ``base_clusters``."""
        self._doc_memo = {
            "flows": self._flows, "flows_done": 0,
            "noise": self._noise_flows, "noise_done": 0,
            "base_entries": [
                _cluster_to_dict(cluster, self._fragment_cache)
                for cluster in base_clusters
            ],
            "base_index": {id(cluster): i for i, cluster in enumerate(base_clusters)},
            "flow_entries": [], "noise_entries": [], "flow_index": {},
        }
        return self._doc_memo

    def _restore_state(self, document: dict[str, Any], source: object) -> None:
        """Load a state envelope into this (empty) instance."""
        watermark, seen_trids, network_name, result_document = (
            open_state_document(document, str(source))
        )
        if network_name and network_name != self.network.name:
            raise RecoveryError(
                source,
                f"snapshot was written for network {network_name!r}, "
                f"not {self.network.name!r}",
            )
        try:
            result = result_from_dict(result_document, self.network)
        except (ReproError, ValueError, TypeError, KeyError, IndexError) as error:
            raise CorruptSnapshot(source, f"result does not decode: {error!r}") from error
        self._flows = list(result.flows)
        self._noise_flows = list(result.noise_flows)
        self._clusters = list(result.clusters)
        self._seen_trids = set(seen_trids)
        self._batches = watermark
        # The served view must pass the check every read applies, and the
        # noise flows and fragments behind it must be ones a run makes.
        errors = validate_result(
            self.snapshot_result(), self.network, allow_shared_segments=True
        ).errors + _state_errors(result, self._seen_trids)
        if errors:
            raise CorruptSnapshot(source, errors[0])
        # Accept only documents this class writes: kept in the document's
        # own base-cluster order, the restored state must re-encode to it.
        # A field that recovery would ignore or normalize (a stale flag,
        # member sids that disagree with the members, a missing network
        # name) is corruption, not a different state.
        self._reset_doc_memo(result.base_clusters)
        if json.loads(encode_state_payload(self._state_document())) != document:
            raise CorruptSnapshot(source, "state document does not re-encode to itself")


def _state_errors(result: NEATResult, seen_trids: set[int]) -> list[str]:
    """What no state this class writes can hold, beyond the served view.

    Every fragment spans two locations at least and comes from a seen
    trajectory, and the kept and noise flows partition the base clusters
    themselves, not just their segments (each batch keeps its own).
    """
    errors = []
    for cluster in result.base_clusters:
        for fragment in cluster.fragments:
            where = f"fragment of trajectory {fragment.trid} on segment {cluster.sid}"
            if len(fragment.locations) < 2:
                errors.append(f"{where} has fewer than 2 locations")
            if fragment.trid not in seen_trids:
                errors.append(f"{where} is from an unseen trajectory")
    members = [
        id(member)
        for flow in (*result.flows, *result.noise_flows)
        for member in flow.members
    ]
    if sorted(members) != sorted(map(id, result.base_clusters)):
        errors.append("kept and noise flows do not partition the base clusters")
    return errors
