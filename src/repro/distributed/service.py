"""The NEAT server facade (Section II-C, in-process), fault-tolerant.

The paper sketches a 3-tier system: clients "send trajectories to a NEAT
server and make requests to the server to get trajectory clustering
results for a particular road network".  :class:`NeatService` is that
server tier as a library object, composing the pieces built elsewhere:

* ingestion goes through :class:`~repro.core.incremental.IncrementalNEAT`
  (batched Phases 1-2, warm Phase 3 refreshes);
* query responses are the serialized wire format of
  :mod:`repro.core.serialize`;
* every response is checked by :mod:`repro.core.validate` before leaving
  the service (a malformed answer is a bug, not a payload).

A production server must keep answering when an ingest or refresh
misbehaves, so the facade adds a robustness layer
(:mod:`repro.resilience`):

* **admission control** — malformed batches are rejected at the door
  (:func:`~repro.core.validate.validate_trajectories`), and a bounded
  pending-batch queue rejects new work with
  :class:`~repro.errors.ServiceOverloaded` once ``max_pending`` batches
  are stuck;
* **retry / deadline / breaker** — each ingest runs under a
  :class:`~repro.resilience.RetryPolicy` and an optional per-call
  :class:`~repro.resilience.Deadline`; consecutive ingest failures trip
  a :class:`~repro.resilience.CircuitBreaker` that sheds load fast;
* **degraded mode** — when a query's refresh fails, the service serves
  the last validated snapshot flagged ``"stale": true`` in the wire
  format instead of raising (:class:`~repro.errors.ServiceUnavailable`
  only when no snapshot exists yet);
* **latency SLO watchdog** — when the config sets ``slo_ingest_p99_s``
  / ``slo_query_p99_s``, an :class:`~repro.obs.slo.SLOWatchdog`
  evaluates the windowed p99 of the submit/query latency histograms
  after every request (inline, so chaos runs are deterministic).  A
  breached ingest SLO *sheds load* (the pending-queue admission bound
  halves); a breached query SLO *serves stale* (queries answer from the
  last validated snapshot without refreshing) — both clear when the
  windowed p99 recovers, and the ``service.slo_breach*`` gauges flip
  with them;
* **fault injection** — the ``ingest`` and ``refresh`` operations are
  named injection points on :attr:`NeatService.faults`, so chaos tests
  script failures deterministically (arm a latency plan with a real
  sleeper against ``ingest`` to drill the SLO watchdog).

Everything is synchronous and in-process; transports (HTTP, gRPC) would
wrap this object without changing it — and the **observability plane**
(:meth:`NeatService.serve_obs`) exposes ``/metrics`` ``/health``
``/statusz`` ``/tracez`` over HTTP without touching the serving paths.
"""

from __future__ import annotations

import marshal
import math
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..core.config import NEATConfig
from ..core.incremental import BatchResult, IncrementalNEAT
from ..core.model import Trajectory
from ..core.serialize import result_to_dict
from ..core.validate import validate_result, validate_trajectories
from ..errors import (
    DeadlineExceeded,
    RetriesExhausted,
    ServiceOverloaded,
    ServiceUnavailable,
    TrajectoryError,
)
from ..obs import Telemetry, get_logger
from ..obs.server import ObservabilityServer
from ..obs.slo import SLORule, SLOWatchdog
from ..resilience import CircuitBreaker, Deadline, FaultInjector, RetryPolicy
from ..roadnet.network import RoadNetwork

_log = get_logger("distributed.service")


@dataclass(frozen=True, slots=True)
class ServiceStats:
    """Operational counters of a service instance.

    A derived view over the service's metrics registry: every field is
    readable (with histograms for the latencies) from
    :meth:`NeatService.metrics_snapshot` as well.
    """

    batches_ingested: int
    trajectories_ingested: int
    queries_served: int
    flow_count: int
    cluster_count: int
    shortest_path_computations: int
    warm_distance_hits: int
    submit_seconds_total: float
    query_seconds_total: float
    pending_batches: int
    stale_queries: int
    rejected_batches: int
    quarantined_trajectories: int
    overload_rejections: int
    retries: int
    breaker_trips: int
    deadline_exceeded: int
    slo_breaches: int
    slo_stale_queries: int


class NeatService:
    """An in-process NEAT server for one road network.

    Args:
        network: The road network clients' trajectories travel on.
        config: NEAT parameters applied to every ingest/refresh; its
            ``max_retries`` / ``deadline_s`` / ``max_pending`` knobs seed
            the robustness layer.
        telemetry: Optional :class:`~repro.obs.Telemetry` bundle shared
            with the underlying incremental clusterer; the service adds
            ``service.*`` and ``resilience.*`` counters and latency
            histograms to it.  Defaults to a fresh enabled bundle.
        retry_policy: Retry policy for ingest/refresh operations.  The
            default retries ``config.max_retries`` times with zero
            backoff (in-process calls have no transport to wait out);
            pass a policy with real delays when fronting remote work.
        breaker: Circuit breaker guarding ingestion.  The default trips
            after 5 consecutive batch failures and probes again 30 s
            later.
        clock: Monotonic clock for deadlines and the breaker
            (injectable for tests).
        sleep: Backoff sleeper for retries (injectable for tests).
        state_dir: Optional directory for durable clustering state.  The
            clusterer journals every batch (and checkpoints per
            ``config.checkpoint_every``) under ``state_dir/incremental``;
            a service constructed over an existing directory recovers
            that state and builds its serving document from it, so it
            can serve stale from the first query.  ``None`` keeps
            everything in memory.

    Example:
        >>> from repro.roadnet import line_network
        >>> service = NeatService(line_network(3))
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: NEATConfig | None = None,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = None,
        state_dir: str | Path | None = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else NEATConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        # The injector exists before the clusterer so recovery itself runs
        # through the same snapshot.*/journal.* fault points chaos tests
        # arm (a service restart is exactly when those faults matter).
        self.faults = FaultInjector()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is None:
            self._incremental = IncrementalNEAT(
                network, self.config, telemetry=self.telemetry
            )
        else:
            # Recover clustering state (empty directory = fresh start with
            # persistence enabled).  Corruption raises typed errors here —
            # construction must never succeed on silently-wrong state.
            # Recovery also warm-loads the distance cache saved with the
            # latest checkpoint or recovery: with an unchanged network,
            # only the journal tail's new pairs are searched
            # (ServiceStats.warm_distance_hits counts the queries the
            # warm cache answers).
            self._incremental = IncrementalNEAT.recover(
                self.state_dir / "incremental",
                network,
                self.config,
                telemetry=self.telemetry,
                faults=self.faults,
            )
        self._clock = clock
        self._sleep = sleep
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_retries=self.config.max_retries,
                base_delay_s=0.0, jitter=0.0,
            )
        )
        metrics = self.telemetry.metrics
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(
                "service.ingest", failure_threshold=5, recovery_s=30.0,
                clock=clock,
            )
        )
        self._pending: deque[list[Trajectory]] = deque()
        # The last validated serving document and the state version it
        # shows.  ``IncrementalNEAT.batch_count`` is the version:
        # ``add_batch`` is the only mutator, and it either bumps the count
        # or rolls the whole batch back.
        self._document: dict[str, Any] | None = None
        self._document_version = -1

        self._submitted_batches = metrics.counter(
            "service.batches_ingested", "Trajectory batches accepted by submit()"
        )
        self._submitted_trajectories = metrics.counter(
            "service.trajectories_ingested", "Trajectories accepted by submit()"
        )
        self._queries = metrics.counter(
            "service.queries_served", "Clustering/flow-summary queries answered"
        )
        self._submit_latency = metrics.histogram(
            "service.submit_latency_seconds", "End-to-end submit() latency"
        )
        self._query_latency = metrics.histogram(
            "service.query_latency_seconds", "End-to-end query latency"
        )
        self._stale_queries = metrics.counter(
            "service.stale_queries",
            "Queries answered from the last snapshot because a refresh failed",
        )
        self._rejected_batches = metrics.counter(
            "service.rejected_batches", "Malformed batches rejected at admission"
        )
        self._quarantined = metrics.counter(
            "service.quarantined_trajectories",
            "Bad trajectories skipped at admission while the rest of "
            "their batch was ingested",
        )
        self._overload_rejections = metrics.counter(
            "service.overload_rejections",
            "Batches rejected because the pending queue was full",
        )
        self._retries = metrics.counter(
            "resilience.retries", "Attempts retried by a RetryPolicy"
        )
        self._breaker_open = metrics.counter(
            "resilience.breaker_open", "Circuit-breaker trips to the open state"
        )
        self._deadline_exceeded = metrics.counter(
            "service.deadline_exceeded", "Calls aborted by their deadline"
        )
        self._pending_gauge = metrics.gauge(
            "service.pending_batches", "Batches queued awaiting (re)ingestion"
        )
        self._slo_stale_queries = metrics.counter(
            "service.slo_stale_queries",
            "Queries answered from the last snapshot because the query "
            "SLO is breached (refresh skipped, not failed)",
        )
        # Route breaker trips into telemetry without the breaker knowing
        # about metrics (a user-supplied on_open hook is kept as-is).
        if self.breaker._on_open is None:
            self.breaker._on_open = self._record_breaker_trip

        # Latency SLO watchdog: rules exist only for configured
        # objectives, evaluated inline after each request so two
        # identical (chaos) runs produce byte-identical verdicts.
        self.slo_watchdog = SLOWatchdog(
            metrics,
            on_breach=self._on_slo_breach,
            on_clear=self._on_slo_clear,
        )
        if self.config.slo_ingest_p99_s is not None:
            self.slo_watchdog.add_rule(SLORule(
                "ingest", self._submit_latency, self.config.slo_ingest_p99_s,
            ))
        if self.config.slo_query_p99_s is not None:
            self.slo_watchdog.add_rule(SLORule(
                "query", self._query_latency, self.config.slo_query_p99_s,
            ))
        self._slo_verdicts: dict[str, bool] = {}
        self._started_at = clock()
        self._obs_server: ObservabilityServer | None = None
        if self._incremental.batch_count:
            # Recovered state: build its document now, so a restarted
            # service serves stale (not ServiceUnavailable) while its
            # first refresh is still failing.
            self._capture_snapshot()

    # ------------------------------------------------------------------
    # Ingestion (the client -> server direction)
    # ------------------------------------------------------------------
    def submit(
        self,
        trajectories: Sequence[Trajectory],
        deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Ingest a trajectory batch; returns an acknowledgement summary.

        Trajectory ids are re-assigned server-side (clients should not
        need to coordinate id spaces).

        The batch is validated, admitted into the bounded pending queue,
        then the queue is drained oldest-first (a previously failed batch
        is retried before the new one).  Failure of any batch leaves it
        queued and raises; :meth:`flush_pending` retries without new work.

        Args:
            trajectories: The batch.
            deadline_s: Per-call budget override (default:
                ``config.deadline_s``; ``None`` = no deadline).

        Raises:
            TrajectoryError: The batch is malformed (admission check).
            ServiceOverloaded: The pending queue is full.
            RetriesExhausted: Ingestion kept failing past the policy.
            DeadlineExceeded: The time budget ran out.
            CircuitOpenError: The ingest breaker is open.
        """
        with self.telemetry.tracer.span("service.submit") as span:
            batch = list(trajectories)
            report = validate_trajectories(self.network, batch)
            quarantined = 0
            if not report.ok:
                # Per-trajectory defects are quarantined (counted and
                # skipped); batch-level defects (duplicate ids) or a batch
                # with nothing admissible left still reject wholesale.
                admitted = [
                    tr for tr in batch if tr.trid not in report.bad_trids
                ]
                if report.batch_errors or not admitted:
                    self._rejected_batches.inc()
                    _log.warning(
                        "batch rejected", errors=len(report.errors),
                        first=report.errors[0],
                    )
                    raise TrajectoryError(
                        "malformed trajectory batch:\n  "
                        + "\n  ".join(report.errors)
                    )
                quarantined = len(batch) - len(admitted)
                self._quarantined.inc(quarantined)
                _log.warning(
                    "trajectories quarantined",
                    quarantined=quarantined,
                    admitted=len(admitted),
                    reasons=dict(list(report.bad_trids.items())[:5]),
                )
                batch = admitted
            max_pending = self.effective_max_pending
            if len(self._pending) >= max_pending:
                self._overload_rejections.inc()
                _log.warning(
                    "batch rejected by admission control",
                    pending=len(self._pending),
                    max_pending=max_pending,
                    slo_shed=self._slo_verdicts.get("ingest", False),
                )
                raise ServiceOverloaded(len(self._pending), max_pending)
            self._pending.append(batch)
            self._pending_gauge.set(len(self._pending))
            ack = self._drain(self._deadline_for("service.submit", deadline_s))
            ack["quarantined"] = quarantined
        self._submit_latency.observe(span.duration)
        self._evaluate_slo()
        _log.info(
            "batch accepted",
            batch=ack["batch"], trajectories=ack["accepted"],
            new_flows=ack["new_flows"], seconds=round(span.duration, 6),
        )
        return ack

    def flush_pending(self, deadline_s: float | None = None) -> int:
        """Retry queued batches without submitting new work.

        Returns the number of batches still pending afterwards; raises
        like :meth:`submit` when a batch keeps failing.
        """
        if self._pending:
            self._drain(self._deadline_for("service.flush", deadline_s))
        return len(self._pending)

    @property
    def pending_batches(self) -> int:
        """Batches queued awaiting (re)ingestion."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Queries (the server -> client direction)
    # ------------------------------------------------------------------
    def get_clustering(
        self, deadline_s: float | None = None, *, mutable: bool = False
    ) -> dict[str, Any]:
        """The current global clustering as a serialized document.

        The response is validated against the framework invariants before
        being returned.  Each state version's document is built and
        validated once; every response is a top-level copy of it (so the
        ``stale`` flags never leak between responses), and its nested
        values are shared with it and with the clusterer's checkpoint
        memo, which writes the same base-cluster entries to disk — treat
        them as read-only, or pass ``mutable=True`` for a private deep
        copy the caller may edit.  When the refresh fails (after
        retries), the last validated snapshot is served instead with
        ``"stale": true`` — degraded, not down.
        While the query latency SLO is breached the refresh is skipped
        outright and the snapshot is served flagged ``"slo_degraded":
        true`` — the watchdog's load-shedding answer to a slow query
        path.

        Raises:
            ServiceUnavailable: The refresh failed and no snapshot has
                ever been validated.
            DeadlineExceeded: The time budget ran out (no stale fallback:
                a deadline is the caller's own abort request).
        """
        with self.telemetry.tracer.span("service.get_clustering") as span:
            if (
                self._slo_verdicts.get("query", False)
                and self._document is not None
            ):
                # SLO shedding: skip the refresh entirely — the stale
                # snapshot keeps the query path fast, which is what lets
                # the windowed p99 (and the breach) recover.
                self._slo_stale_queries.inc()
                _log.warning("serving stale snapshot: query SLO breached")
                response = dict(self._document)
                response["stale"] = True
                response["slo_degraded"] = True
            else:
                deadline = self._deadline_for(
                    "service.get_clustering", deadline_s
                )
                try:
                    document = self.retry_policy.call(
                        self._refresh_document,
                        operation="service.refresh",
                        deadline=deadline,
                        sleep=self._sleep,
                        on_retry=self._on_retry,
                    )
                    response = dict(document)
                except DeadlineExceeded:
                    self._deadline_exceeded.inc()
                    raise
                except Exception as error:
                    if self._document is None:
                        raise ServiceUnavailable(
                            "refresh failed and no validated snapshot exists"
                        ) from error
                    self._stale_queries.inc()
                    _log.warning(
                        "serving stale snapshot", error=repr(error),
                    )
                    response = dict(self._document)
                    response["stale"] = True
            if mutable:
                response = marshal.loads(marshal.dumps(response))
        self._queries.inc()
        self._query_latency.observe(span.duration)
        self._evaluate_slo()
        return response

    def get_flow_summaries(self) -> list[dict[str, Any]]:
        """Lightweight per-flow digests (for map UIs / previews)."""
        with self.telemetry.tracer.span("service.get_flow_summaries") as span:
            summaries = [
                {
                    "flow": index,
                    "segments": list(flow.sids),
                    "endpoints": list(flow.endpoints),
                    "cardinality": flow.trajectory_cardinality,
                    "route_length_m": round(flow.route_length, 1),
                }
                for index, flow in enumerate(self._incremental.flows)
            ]
        self._queries.inc()
        self._query_latency.observe(span.duration)
        self._evaluate_slo()
        return summaries

    def stats(self) -> ServiceStats:
        """Operational counters (a view over the metrics registry)."""
        return ServiceStats(
            batches_ingested=int(self._submitted_batches.value),
            trajectories_ingested=int(self._submitted_trajectories.value),
            queries_served=int(self._queries.value),
            flow_count=len(self._incremental.flows),
            cluster_count=len(self._incremental.clusters),
            shortest_path_computations=self._incremental.engine.computations,
            warm_distance_hits=self._incremental.engine.warm_hits,
            submit_seconds_total=self._submit_latency.sum,
            query_seconds_total=self._query_latency.sum,
            pending_batches=len(self._pending),
            stale_queries=int(self._stale_queries.value),
            rejected_batches=int(self._rejected_batches.value),
            quarantined_trajectories=int(self._quarantined.value),
            overload_rejections=int(self._overload_rejections.value),
            retries=int(self._retries.value),
            breaker_trips=int(self._breaker_open.value),
            deadline_exceeded=int(self._deadline_exceeded.value),
            slo_breaches=int(
                self.telemetry.metrics.value("service.slo_breaches")
            ),
            slo_stale_queries=int(self._slo_stale_queries.value),
        )

    def metrics_snapshot(self) -> dict[str, Any]:
        """The full telemetry snapshot (trace forest + every instrument)."""
        return self.telemetry.snapshot()

    # ------------------------------------------------------------------
    def _deadline_for(
        self, operation: str, deadline_s: float | None
    ) -> Deadline | None:
        budget = deadline_s if deadline_s is not None else self.config.deadline_s
        if budget is None:
            return None
        return Deadline(budget, operation, clock=self._clock)

    def _on_retry(self, attempt: int, delay: float, error: BaseException) -> None:
        self._retries.inc()
        _log.warning(
            "operation retrying",
            attempt=attempt, delay_s=round(delay, 6), error=repr(error),
        )

    def _record_breaker_trip(self) -> None:
        self._breaker_open.inc()
        _log.error("ingest circuit opened", breaker=self.breaker.name)

    # ------------------------------------------------------------------
    # Latency SLO watchdog
    # ------------------------------------------------------------------
    @property
    def effective_max_pending(self) -> int:
        """The admission bound in force right now.

        ``config.max_pending`` normally; halved (floor 1) while the
        ingest latency SLO is breached — the watchdog's load-shedding
        answer to a slow ingest path.
        """
        if self._slo_verdicts.get("ingest", False):
            return max(1, self.config.max_pending // 2)
        return self.config.max_pending

    def _evaluate_slo(self) -> None:
        """One inline watchdog evaluation (no-op without configured rules)."""
        if not self.slo_watchdog.rules:
            return
        self._slo_verdicts = self.slo_watchdog.evaluate()

    def _on_slo_breach(self, rule: SLORule) -> None:
        _log.warning(
            "latency SLO breached",
            rule=rule.name,
            threshold_s=rule.threshold_s,
            quantile=rule.quantile,
        )

    def _on_slo_clear(self, rule: SLORule) -> None:
        _log.info("latency SLO recovered", rule=rule.name)

    def _drain(self, deadline: Deadline | None) -> dict[str, Any]:
        """Process the pending queue oldest-first; ack the last batch done.

        A failing batch stays at the head of the queue (ingestion rolls
        back on failure, so a retry starts clean) and its error
        propagates to the caller.
        """
        ack: dict[str, Any] = {}
        while self._pending:
            batch = self._pending[0]
            self.breaker.check()
            try:
                result = self.retry_policy.call(
                    self._ingest_once,
                    batch,
                    operation="service.ingest",
                    deadline=deadline,
                    sleep=self._sleep,
                    on_retry=self._on_retry,
                )
            except DeadlineExceeded:
                self._deadline_exceeded.inc()
                raise
            except RetriesExhausted:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            self._pending.popleft()
            self._pending_gauge.set(len(self._pending))
            self._submitted_batches.inc()
            self._submitted_trajectories.inc(len(batch))
            ack = {
                "batch": result.batch_index,
                "accepted": len(batch),
                "new_flows": len(result.new_flows),
                "total_flows": len(self._incremental.flows),
                "clusters": len(result.clusters),
            }
        self._capture_snapshot()
        return ack

    def _ingest_once(self, batch: list[Trajectory]) -> BatchResult:
        """One ingest attempt, through the ``ingest`` injection point."""
        return self.faults.run(
            "ingest",
            self._incremental.add_batch,
            batch,
            auto_offset_ids=True,
        )

    def _capture_snapshot(self) -> None:
        """Best-effort build of the degraded-mode snapshot after ingest.

        Deliberately *not* routed through the ``refresh`` injection point
        — chaos tests arm that against queries; the post-ingest capture
        is what those queries then fall back to.  A failed build keeps
        the previous version's document, and the next query retries it.
        Nothing is written: the incremental journal is the durable source
        of truth, and a restart rebuilds the document from it.
        """
        try:
            self._current_document()
        except Exception as error:  # pragma: no cover - defensive
            _log.warning("post-ingest snapshot failed", error=repr(error))

    def _refresh_document(self) -> dict[str, Any]:
        """One query-path refresh attempt (the ``refresh`` injection point)."""
        return self.faults.run("refresh", self._current_document)

    def _current_document(self) -> dict[str, Any]:
        """The current state version's document, built at most once."""
        version = self._incremental.batch_count
        if self._document_version != version:
            self._document = self._build_document()
            self._document_version = version
        return self._document

    def _build_document(self) -> dict[str, Any]:
        # The served view of the clusterer's state.  Checkpoints are
        # built separately, by IncrementalNEAT._state_document, which
        # also carries the noise flows the served view leaves out; both
        # share the clusterer's base-cluster entries, so a read
        # serializes only the base clusters new since the last one.
        incremental = self._incremental
        result = incremental.snapshot_result()
        validate_result(
            result, self.network, allow_shared_segments=True
        ).raise_if_invalid()
        return result_to_dict(
            result, network_name=self.network.name,
            fragment_cache=incremental._fragment_cache,
        )

    def checkpoint(self) -> int:
        """Force a snapshot generation of the clustering state now.

        Requires a ``state_dir``; see :meth:`IncrementalNEAT.checkpoint`.
        """
        return self._incremental.checkpoint()

    # ------------------------------------------------------------------
    # Observability plane (/metrics /health /statusz /tracez)
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """The ``/health`` document: admission, breaker and SLO state.

        ``status`` is ``"degraded"`` while the ingest breaker is not
        closed or any latency SLO is breached — still serving (HTTP 200),
        but shedding load or answering stale.
        """
        breaker_state = self.breaker.state
        degraded = (
            breaker_state != CircuitBreaker.CLOSED
            or self.slo_watchdog.breached
        )
        return {
            "status": "degraded" if degraded else "ok",
            "breaker": breaker_state,
            "pending_batches": len(self._pending),
            "max_pending": self.config.max_pending,
            "effective_max_pending": self.effective_max_pending,
            "slo": self.slo_watchdog.snapshot(),
            "flows": len(self._incremental.flows),
            "clusters": len(self._incremental.clusters),
            "has_snapshot": self._document is not None,
            "uptime_s": round(self._clock() - self._started_at, 3),
        }

    def statusz(self) -> dict[str, Any]:
        """The ``/statusz`` document: full stats plus effective config."""
        return {
            "stats": asdict(self.stats()),
            "config": {
                key: (value if _json_safe(value) else repr(value))
                for key, value in asdict(self.config).items()
            },
            "network": {
                "name": self.network.name,
                "junctions": self.network.junction_count,
                "segments": self.network.segment_count,
            },
            "batches": self._incremental.batch_count,
            "uptime_s": round(self._clock() - self._started_at, 3),
        }

    def serve_obs(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> ObservabilityServer:
        """Start (or return) the HTTP observability plane for this service.

        Binds ``host:port`` (``port=0`` picks an ephemeral port — read it
        back from the returned server's ``.port``) and serves
        ``/metrics``, ``/health``, ``/statusz`` and ``/tracez`` from this
        service's telemetry on daemon threads.  Idempotent while running.
        """
        if self._obs_server is not None and self._obs_server.running:
            return self._obs_server
        self._obs_server = ObservabilityServer(
            self.telemetry,
            health=self.health,
            statusz=self.statusz,
            host=host,
            port=port,
        )
        return self._obs_server.start()

    def stop_obs(self) -> None:
        """Stop the observability plane if it is running (idempotent)."""
        if self._obs_server is not None:
            self._obs_server.stop()
            self._obs_server = None


def _json_safe(value: Any) -> bool:
    """Whether ``value`` survives strict JSON round-tripping as-is."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (bool, int, str, type(None)))
