"""Incremental (online) NEAT clustering.

Section III-C of the paper motivates the Phase 3 design with exactly this
deployment: "the first two phases of NEAT can be performed on each newly
arrived set of trajectories.  The new flow clusters are then merged with
the available flow clusters to produce compact clustering results."

:class:`IncrementalNEAT` implements that loop.  Each ``add_batch`` runs
Phases 1-2 on the newly arrived trajectories only, appends the resulting
flows to the retained flow pool, and re-refines the pool with the adapted
DBSCAN.  The pool's eps-neighbour graph is kept across batches (flows
only append, so no decided pair can change), and each refresh decides
only the pairs involving a new flow before DBSCAN reruns over the graph
(incremental DBSCAN for insertions, Ester et al., VLDB 1998): clusters
are exactly a full refine's, at the cost of the new pairs.  One memoized
shortest-path engine serves every batch (the warm server behaviour the
paper's NEAT service assumes).

Trajectory ids must be unique across batches; the class offsets them
automatically when asked.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import (
    CorruptSnapshot,
    PersistenceError,
    RecoveryError,
    ReproError,
    TrajectoryError,
)
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
from .base_cluster import BaseCluster, form_base_clusters
from .config import NEATConfig
from .flow_cluster import FlowCluster
from .flow_formation import form_flow_clusters
from .model import TFragment, Trajectory
from .refinement import RefinementStats, TrajectoryCluster, refine_flow_clusters
from .result import NEATResult
from .serialize import (
    FORMAT_TAG,
    FORMAT_VERSION,
    _cluster_to_dict,
    _flow_to_dict,
    result_from_dict,
)
from .validate import junction_problem, validate_result, validate_trajectories

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
        refinement_stats: Phase 3 instrumentation for this refresh.  It
            counts only the pairs this refresh decided (those involving
            a new flow); the neighbour graph keeps the older ones, so
            over a stream the per-refresh ``pair_checks``,
            ``elb_pruned`` and ``hausdorff_evaluations`` sum to what one
            :func:`~repro.core.refinement.refine_flow_clusters` over the
            final pool reports.  Recovery rebuilds the graph of the
            restored flows once (every pair counted once more, in the
            ``neat.phase3.*`` counters); refreshes after it count only
            their own pairs.
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
        # The eps-neighbour rows of the retained flows (Phase 3's graph):
        # rows only append, in step with _flows.
        self._neighbours: list[list[int]] = []
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
        # The served view's density-sorted base clusters, extended as
        # flows append (reset, like _doc_memo, when _flows is replaced).
        self._served_memo: dict[str, Any] | None = None

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

        Raises:
            TrajectoryError: A trajectory fails admission
                (:func:`~repro.core.validate.validate_trajectories`), e.g.
                a location marked as a junction it does not sit on:
                recovery refuses such a state, so the batch rolls back.
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
            [len(row) for row in self._neighbours],
        )
        self._seen_trids.update(tr.trid for tr in batch)

        result = BatchResult(batch_index=self._batches)
        self._batches += 1

        telemetry = self.telemetry
        metrics = telemetry.metrics if telemetry.enabled else None
        try:
            with telemetry.tracer.span("incremental.add_batch") as batch_span:
                bad = validate_trajectories(self.network, batch).bad_trids
                if bad:
                    trid, problem = next(iter(bad.items()))
                    raise TrajectoryError(f"trajectory {trid} {problem}")
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
                        neighbours=self._neighbours,
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
                row_lengths,
            ) = rollback
            # The graph only grows, so cutting each row back undoes it.
            del self._neighbours[len(row_lengths):]
            for row, length in zip(self._neighbours, row_lengths):
                del row[length:]
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

        :meth:`checkpoint` calls this after each snapshot generation, and
        :meth:`recover` once after its replay; batches never do.

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
        ``config.checkpoint_every``).  Each checkpoint also saves the
        shortest-path memo table to ``distcache.snap`` (best-effort,
        skipped when unchanged), so :meth:`recover` rebuilds Phase 3 for
        the checkpointed flows warm and searches only for the pairs the
        journal tail adds.

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
        # The distance cache is saved with each checkpoint (and after a
        # recovery), never per batch: recovery rebuilds the checkpointed
        # flows' Phase 3 from it.
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
        The distance cache saved with the latest checkpoint is loaded
        first: with an unchanged network, rebuilding the snapshot's
        Phase 3 runs no search, and replay searches only for the pairs
        the journal tail adds.  What replay did search is saved once at
        the end, so a second restart over the same tail runs warm too.
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
        # Warm the shortest-path engine *before* restoring the snapshot:
        # with an unchanged network (same CSR mutation version) every
        # distance the snapshot's Phase 3 needs was saved with it.
        # Best-effort — a missing or stale cache just means a cold engine.
        warm_entries = load_distance_cache(
            manager.state_dir / "distcache.snap",
            clusterer.engine,
            metrics=metrics,
            faults=faults,
        )
        if warm_entries is not None:
            # Baseline the dirty check at the file's content: the next
            # checkpoint rewrites it only if recovery computed more.
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
        # cache already covered it), so the next restart after a crash
        # does not search for the same tail again.
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
        result.base_clusters = self._density_sorted_members()
        result.flows = list(self._flows)
        result.clusters = list(self._clusters)
        cards = [flow.trajectory_cardinality for flow in result.flows]
        result.min_card_used = min(cards) if cards else 0
        return result

    def _density_sorted_members(self) -> list[BaseCluster]:
        """The retained flows' members, densest first, ties by sid.

        Flows only append, so each call inserts just the members of the
        flows new since the last one.  ``bisect_right`` places a member
        after every equal key, so the list is exactly the stable
        ``sorted`` of all members in flow order.
        """
        memo = self._served_memo
        flows = self._flows
        if memo is None or memo["flows"] is not flows or memo["done"] > len(flows):
            members = sorted(
                (member for flow in flows for member in flow.members),
                key=_density_key,
            )
            memo = self._served_memo = {
                "flows": flows, "done": len(flows), "members": members,
                "keys": [_density_key(member) for member in members],
            }
        keys, members = memo["keys"], memo["members"]
        for flow in flows[memo["done"]:]:
            for member in flow.members:
                key = _density_key(member)
                index = bisect_right(keys, key)
                keys.insert(index, key)
                members.insert(index, member)
        memo["done"] = len(flows)
        return list(members)

    def _state_document(self) -> dict[str, Any]:
        """The full durable state (flows, noise flows, id space).

        Phase 3's clusters are left out: they are a function of the
        flows and the config, and :meth:`recover` derives them.

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
            "flow_entries": [], "noise_entries": [],
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
            # The state carries no clusters; they are derived below.
            result = result_from_dict(
                {**result_document, "clusters": []}, self.network
            )
        except (ReproError, ValueError, TypeError, KeyError, IndexError) as error:
            raise CorruptSnapshot(source, f"result does not decode: {error!r}") from error
        self._flows = list(result.flows)
        self._noise_flows = list(result.noise_flows)
        self._clusters = []
        self._neighbours = []
        self._seen_trids = set(seen_trids)
        self._batches = watermark
        # The served view must pass the check every read applies, and the
        # noise flows and fragments behind it must be ones a run makes.
        errors = validate_result(
            self.snapshot_result(), self.network, allow_shared_segments=True
        ).errors + _state_errors(
            result, self._seen_trids, self.network,
            self.config.keep_interior_points,
        )
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
        # Phase 3 from an empty graph over the restored flows, warm when
        # the checkpoint's distance cache was loaded; the rows are kept,
        # so the next refresh decides only its new pairs.
        self._clusters = refine_flow_clusters(
            self.network, self._flows, self.config, engine=self.engine,
            metrics=self.telemetry.metrics if self.telemetry.enabled else None,
            neighbours=self._neighbours,
        )


def _density_key(cluster: BaseCluster) -> tuple[int, int]:
    return (-cluster.density, cluster.sid)


def _state_errors(
    result: NEATResult,
    seen_trids: set[int],
    network: RoadNetwork,
    keep_interior_points: bool,
) -> list[str]:
    """What no state this class writes can hold, beyond the served view.

    Every fragment spans two locations at least (exactly its two boundary
    points unless interior points are kept, so a repeated raw sample is
    refused there) and comes from a seen trajectory, every junction
    location sits on its junction, each trajectory's fragments chain (see
    :func:`_chain_problem`), and the kept and noise flows partition the
    base clusters themselves, not just their segments (each batch keeps
    its own).
    """
    errors = []
    by_trid: dict[int, list[TFragment]] = {}
    for cluster in result.base_clusters:
        for fragment in cluster.fragments:
            where = f"fragment of trajectory {fragment.trid} on segment {cluster.sid}"
            if len(fragment.locations) < 2:
                errors.append(f"{where} has fewer than 2 locations")
            elif len(fragment.locations) > 2 and not keep_interior_points:
                errors.append(
                    f"{where} has {len(fragment.locations)} locations, "
                    "not its 2 boundary points"
                )
            if fragment.trid not in seen_trids:
                errors.append(f"{where} is from an unseen trajectory")
            for location in fragment.locations:
                problem = junction_problem(network, location)
                if problem is not None:
                    errors.append(f"{where}: {problem}")
            by_trid.setdefault(fragment.trid, []).append(fragment)
    for trid, fragments in by_trid.items():
        problem = _chain_problem(fragments)
        if problem is not None:
            errors.append(f"fragments of trajectory {trid} {problem}")
    members = [
        id(member)
        for flow in (*result.flows, *result.noise_flows)
        for member in flow.members
    ]
    if sorted(members) != sorted(map(id, result.base_clusters)):
        errors.append("kept and noise flows do not partition the base clusters")
    return errors


def _chain_problem(fragments: list[TFragment]) -> str | None:
    """Why one trajectory's fragments do not chain, or None.

    Fragmentation splits a trajectory only at junction crossings, so in
    travel order each fragment begins at the junction, and the time,
    where the one before it ends.  Read each fragment as an edge from
    its first ``(node_id, t)`` to its last: such an order exists exactly
    when these edges form one Eulerian trail (connected, and in and out
    degrees balance except at the trail's two ends).  The test needs no
    order to start from, so equal timestamps, and a junction crossed
    twice at one time, chain whatever order the state lists them in.  A
    raw sample (no ``node_id``) is a vertex of its own, so it can only
    open or close the trail.
    """
    parent: dict[object, object] = {}

    def root(vertex: object) -> object:
        while parent.setdefault(vertex, vertex) != vertex:
            vertex = parent[vertex]
        return vertex

    balance: dict[object, int] = {}
    for fragment in fragments:
        head, tail = (
            object() if location.node_id is None else (location.node_id, location.t)
            for location in (fragment.locations[0], fragment.locations[-1])
        )
        balance[head] = balance.get(head, 0) + 1
        balance[tail] = balance.get(tail, 0) - 1
        parent[root(head)] = root(tail)
    unbalanced = sorted(value for value in balance.values() if value)
    if unbalanced not in ([], [-1, 1]) or len({root(v) for v in balance}) > 1:
        return "do not meet at one junction with the same t"
    return None
