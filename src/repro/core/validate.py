"""Structural validation of NEAT results.

An independent checker for every invariant the three-phase framework
guarantees — useful to users consuming serialized results from a NEAT
server, and used by this repository's property-based tests as the single
source of truth for "is this output well-formed?".

Checked invariants:

1. base clusters are keyed by distinct, existing road segments and
   contain only matching-sid fragments;
2. Phase 1 output is density-sorted (dense-core first);
3. every base cluster belongs to exactly one flow (kept or noise) when
   Phase 2 ran — the partition is lossless;
4. every flow's representative segments form a network route;
5. every kept flow meets the resolved ``minCard``, every noise flow
   misses it;
6. final clusters partition the kept flows (when Phase 3 ran).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..roadnet.network import RoadNetwork
from .model import Location, Trajectory
from .result import NEATResult


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_result` / :func:`validate_trajectories`.

    Attributes:
        errors: Human-readable invariant violations (empty = valid).
        batch_errors: The subset of violations that condemn a whole
            trajectory batch (duplicate ids — no single trajectory can be
            blamed), as opposed to per-trajectory problems.
        bad_trids: Per-trajectory problems, ``trid -> reason``.  A caller
            that prefers degraded ingest over rejection (the service's
            quarantine path) can skip exactly these and admit the rest —
            but only when ``batch_errors`` is empty.
    """

    errors: list[str] = field(default_factory=list)
    batch_errors: list[str] = field(default_factory=list)
    bad_trids: dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` listing the violations, if any."""
        if self.errors:
            raise ValueError(
                "invalid NEAT result:\n  " + "\n  ".join(self.errors)
            )


def validate_result(
    result: NEATResult,
    network: RoadNetwork,
    allow_shared_segments: bool = False,
) -> ValidationReport:
    """Check every structural invariant of a NEAT result.

    Args:
        result: The result to check.
        network: The road network it was computed on.
        allow_shared_segments: A single NEAT run assigns each road segment
            to exactly one base cluster and one flow; *incremental*
            snapshots (batched ingestion) legitimately hold one base
            cluster per (segment, batch), so multiple flows may cover the
            same segment.  Set this to relax the uniqueness/partition
            checks while keeping route, ``minCard``, ordering and cluster-
            partition checks.
    """
    report = ValidationReport()
    _check_base_clusters(result, network, report, allow_shared_segments)
    if result.flows or result.noise_flows:
        _check_flows(result, network, report, allow_shared_segments)
    if result.clusters:
        _check_clusters(result, report)
    return report


def validate_trajectories(
    network: RoadNetwork, trajectories: Sequence[Trajectory]
) -> ValidationReport:
    """Check a trajectory batch *before* it enters the pipeline.

    The ingest-side counterpart of :func:`validate_result`: a NEAT server
    admits client batches only after this passes, so a malformed batch is
    rejected at the door instead of poisoning the retained flow pool.

    Checked per trajectory (reported in ``bad_trids`` so callers can
    quarantine individuals): every location references a segment of
    ``network``, coordinates and timestamps are finite (NaN/inf would
    poison every distance downstream), a location marked as a junction
    sits on it (:func:`junction_problem`, which snapshot recovery checks
    too), and timestamps are non-decreasing
    — checked NaN-safely, since the :class:`~repro.core.model.Trajectory`
    constructor's ``later < earlier`` comparison is silently ``False``
    for NaN.  Checked per batch (reported in ``batch_errors``):
    trajectory ids are unique.
    """
    report = ValidationReport()
    seen_trids: set[int] = set()
    for trajectory in trajectories:
        if trajectory.trid in seen_trids:
            message = f"duplicate trajectory id in batch: {trajectory.trid}"
            report.errors.append(message)
            report.batch_errors.append(message)
        seen_trids.add(trajectory.trid)
        reason = _trajectory_problem(network, trajectory)
        if reason is not None:
            report.errors.append(f"trajectory {trajectory.trid} {reason}")
            report.bad_trids.setdefault(trajectory.trid, reason)
    return report


def _trajectory_problem(
    network: RoadNetwork, trajectory: Trajectory
) -> str | None:
    """The first admission-blocking defect of one trajectory, or None."""
    previous_t: float | None = None
    for location in trajectory.locations:
        if not network.has_segment(location.sid):
            return f"references unknown segment {location.sid}"
        if not (math.isfinite(location.x) and math.isfinite(location.y)):
            return f"has non-finite coordinates ({location.x}, {location.y})"
        if not math.isfinite(location.t):
            return f"has non-finite timestamp {location.t}"
        problem = junction_problem(network, location)
        if problem is not None:
            return problem
        # ``not >=`` instead of ``<`` so a NaN that sneaked into an
        # earlier sample cannot make the comparison silently pass.
        if previous_t is not None and not (location.t >= previous_t):
            return (
                f"has non-monotonic timestamps "
                f"({location.t} after {previous_t})"
            )
        previous_t = location.t
    return None


def junction_problem(network: RoadNetwork, location: Location) -> str | None:
    """Why a location marked as a junction is not on it, or None.

    A location with ``node_id`` set (an inserted junction point) must sit
    exactly at ``network.node_point(node_id)``, and the junction must be
    an endpoint of the location's segment.
    """
    node = location.node_id
    if node is None:
        return None
    if not network.has_node(node):
        return f"marks unknown junction {node}"
    point = network.node_point(node)
    if (location.x, location.y) != (point.x, point.y):
        return f"marks junction {node} but sits at ({location.x}, {location.y})"
    if network.has_segment(location.sid) and (
        node not in network.segment(location.sid).endpoints
    ):
        return f"marks junction {node}, not an endpoint of segment {location.sid}"
    return None


def _check_base_clusters(
    result: NEATResult,
    network: RoadNetwork,
    report: ValidationReport,
    allow_shared_segments: bool = False,
) -> None:
    seen: set[int] = set()
    previous_density: int | None = None
    for cluster in result.base_clusters:
        if cluster.sid in seen and not allow_shared_segments:
            report.errors.append(f"duplicate base cluster for segment {cluster.sid}")
        seen.add(cluster.sid)
        if not network.has_segment(cluster.sid):
            report.errors.append(f"base cluster on unknown segment {cluster.sid}")
        for fragment in cluster.fragments:
            if fragment.sid != cluster.sid:
                report.errors.append(
                    f"fragment of trajectory {fragment.trid} on segment "
                    f"{fragment.sid} filed under base cluster {cluster.sid}"
                )
        if previous_density is not None and cluster.density > previous_density:
            report.errors.append(
                "base clusters not density-sorted "
                f"(density {cluster.density} after {previous_density})"
            )
        previous_density = cluster.density


def _check_flows(
    result: NEATResult,
    network: RoadNetwork,
    report: ValidationReport,
    allow_shared_segments: bool = False,
) -> None:
    assigned: set[int] = set()
    for kind, flows in (("flow", result.flows), ("noise", result.noise_flows)):
        for flow in flows:
            sids, cardinality = flow.sids, flow.trajectory_cardinality
            if len(sids) > 1 and not network.is_route(sids):
                report.errors.append(
                    f"{kind} cluster route is not a network path: {sids}"
                )
            if allow_shared_segments:
                assigned.update(sids)
            else:
                for sid in sids:
                    if sid in assigned:
                        report.errors.append(
                            f"segment {sid} assigned to two flows"
                        )
                    assigned.add(sid)
            if kind == "flow" and cardinality < result.min_card_used:
                report.errors.append(
                    f"kept flow below minCard: {cardinality} "
                    f"< {result.min_card_used}"
                )
            if kind == "noise" and cardinality >= max(1, result.min_card_used):
                report.errors.append(
                    f"noise flow meets minCard: {cardinality} "
                    f">= {result.min_card_used}"
                )
    base_sids = {cluster.sid for cluster in result.base_clusters}
    if assigned != base_sids:
        missing = base_sids - assigned
        extra = assigned - base_sids
        if missing:
            report.errors.append(f"base clusters not in any flow: {sorted(missing)[:5]}")
        if extra:
            report.errors.append(f"flows reference unknown base clusters: {sorted(extra)[:5]}")


def _check_clusters(result: NEATResult, report: ValidationReport) -> None:
    clustered = [id(flow) for cluster in result.clusters for flow in cluster.flows]
    if len(clustered) != len(set(clustered)):
        report.errors.append("a flow appears in two final clusters")
    kept = {id(flow) for flow in result.flows}
    if set(clustered) != kept:
        report.errors.append(
            "final clusters do not partition the kept flows "
            f"({len(clustered)} clustered vs {len(kept)} kept)"
        )
    for index, cluster in enumerate(result.clusters):
        if not cluster.flows:
            report.errors.append(f"final cluster {index} is empty")
