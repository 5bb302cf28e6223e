"""Phase 1, step 2: grouping t-fragments into base clusters.

Implements Definitions 2-4 of the paper: a *base cluster* collects the
t-fragments lying on one road segment (its *representative*), its *density*
is its fragment count, its *trajectory cardinality* the number of distinct
participating trajectories.  Phase 1's output is the density-descending
list of base clusters, whose head is the *dense-core*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..gcpause import gc_paused
from ..roadnet.network import RoadNetwork
from .fragmentation import fragment_all
from .model import TFragment, Trajectory


@dataclass
class BaseCluster:
    """All t-fragments associated with one road segment (Definition 2).

    Attributes:
        sid: The representative road segment ``e_S``.
        fragments: The member t-fragments.
    """

    sid: int
    fragments: list[TFragment] = field(default_factory=list)
    _participants: frozenset[int] | None = field(
        default=None, repr=False, compare=False
    )

    def add(self, fragment: TFragment) -> None:
        """Add a fragment (must lie on this cluster's segment)."""
        if fragment.sid != self.sid:
            raise ValueError(
                f"fragment on segment {fragment.sid} cannot join base cluster "
                f"of segment {self.sid}"
            )
        self.fragments.append(fragment)
        self._participants = None

    @property
    def density(self) -> int:
        """``d(S)``: number of member t-fragments (Definition 4)."""
        return len(self.fragments)

    @property
    def participants(self) -> frozenset[int]:
        """``PTr(S)``: ids of the participating trajectories (Definition 3)."""
        if self._participants is None:
            self._participants = frozenset([f.trid for f in self.fragments])
        return self._participants

    @property
    def trajectory_cardinality(self) -> int:
        """``|PTr(S)|`` (Definition 3)."""
        return len(self.participants)

    def __len__(self) -> int:
        return len(self.fragments)


def netflow(a: BaseCluster, b: BaseCluster) -> int:
    """``f(S_i, S_j)``: trajectories participating in both (Definition 5)."""
    return len(a.participants & b.participants)


def group_fragments(fragments: Iterable[TFragment]) -> list[BaseCluster]:
    """Group fragments by road segment into base clusters.

    Returns the clusters sorted by descending density, ties broken by
    ascending sid so Phase 2's merge order is deterministic (Section
    III-B1).  The first element is the dense-core.  Each cluster is built
    once from its segment's fragment list, in input order.
    """
    by_sid: dict[int, list[TFragment]] = {}
    for fragment in fragments:
        members = by_sid.get(fragment.sid)
        if members is None:
            by_sid[fragment.sid] = [fragment]
        else:
            members.append(fragment)
    order = sorted(by_sid, key=lambda sid: (-len(by_sid[sid]), sid))
    return [BaseCluster(sid, by_sid[sid]) for sid in order]


@gc_paused
def form_base_clusters(
    network: RoadNetwork,
    trajectories: Sequence[Trajectory],
    keep_interior_points: bool = False,
    metrics=None,
) -> list[BaseCluster]:
    """Phase 1 end-to-end: fragment trajectories and group into base clusters.

    Args:
        network: The road network.
        trajectories: The trajectories to fragment.
        keep_interior_points: Keep non-junction samples inside fragments.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the ``neat.phase1.*`` counters are published,
            including this call's deltas of the network's crossing-table
            searches and lookups.

    Returns the density-descending base cluster list (head = dense-core).
    Runs with the cyclic GC paused (:mod:`repro.gcpause`): fragmentation
    allocates two location samples per junction crossing.
    """
    table = network.crossing_table()
    searches, lookups = table.searches, table.lookups
    fragments = fragment_all(network, trajectories, keep_interior_points)
    clusters = group_fragments(fragments)
    if metrics is not None:
        metrics.counter(
            "neat.phase1.crossing_searches",
            "Shortest-route searches run to fill the crossing table",
        ).inc(table.searches - searches)
        metrics.counter(
            "neat.phase1.crossing_lookups",
            "Junction-crossing requests answered by the crossing table",
        ).inc(table.lookups - lookups)
        metrics.counter(
            "neat.phase1.trajectories", "Trajectories fragmented in Phase 1"
        ).inc(len(trajectories))
        metrics.counter(
            "neat.phase1.t_fragments", "T-fragments extracted in Phase 1"
        ).inc(len(fragments))
        metrics.counter(
            "neat.phase1.base_clusters", "Base clusters formed in Phase 1"
        ).inc(len(clusters))
    return clusters


def densecore(clusters: Sequence[BaseCluster]) -> BaseCluster:
    """The highest-density cluster of a set (Definition 4).

    For an unsorted sequence this scans; for Phase 1 output it is the head.
    """
    if not clusters:
        raise ValueError("densecore of empty base cluster set")
    return min(clusters, key=lambda s: (-s.density, s.sid))
