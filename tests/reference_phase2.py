"""Phase 2 with per-member set arithmetic: the reference for the set-time one.

This is Section III-B as the library ran it before netflow became one set
intersection and flows kept their participants as they grew:

* ``f(S_i, S_j)`` counts the shared trajectories with a generator over the
  smaller participant set (Definition 5);
* a flow's participants ``PTr(F)`` are rebuilt from its members on every
  read, and ``f(F, S)`` tests each of ``S``'s trajectories against that
  rebuilt union;
* a base cluster's participants are read off its fragments each time.

The loop itself — density-ordered seeds, f-neighbors at each open end
(Definition 6), β-domination (Section III-B2), merging selectivity
(Definitions 9/10) and the ``minCard`` split — is written out here too,
so the reference shares no Phase 2 code with :mod:`repro.core`.  It
returns :class:`ReferenceFlow` objects whose members are the very base
clusters it was given, so a test can compare member identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.base_cluster import BaseCluster
from repro.core.config import NEATConfig
from repro.roadnet.network import RoadNetwork


def participants(cluster: BaseCluster) -> frozenset[int]:
    """``PTr(S)``, read off the fragments (Definition 3)."""
    return frozenset(f.trid for f in cluster.fragments)


def netflow(a: BaseCluster, b: BaseCluster) -> int:
    """``f(S_i, S_j)``: trajectories participating in both (Definition 5)."""
    pa, pb = participants(a), participants(b)
    smaller, larger = (pa, pb) if len(pa) <= len(pb) else (pb, pa)
    return sum(1 for trid in smaller if trid in larger)


class ReferenceFlow:
    """An ordered member list with its two open junctions (Definition 8)."""

    def __init__(self, network: RoadNetwork, seed: BaseCluster) -> None:
        segment = network.segment(seed.sid)
        self.network = network
        self.members: list[BaseCluster] = [seed]
        self.front_node = segment.node_u
        self.end_node = segment.node_v

    def append(self, cluster: BaseCluster) -> None:
        self.members.append(cluster)
        self.end_node = self.network.segment(cluster.sid).other_endpoint(self.end_node)

    def prepend(self, cluster: BaseCluster) -> None:
        self.members.insert(0, cluster)
        self.front_node = self.network.segment(cluster.sid).other_endpoint(
            self.front_node
        )

    @property
    def participants(self) -> frozenset[int]:
        """``PTr(F)``: the union over every member, rebuilt on each read."""
        union: set[int] = set()
        for member in self.members:
            union.update(participants(member))
        return frozenset(union)

    @property
    def trajectory_cardinality(self) -> int:
        return len(self.participants)

    def netflow_with(self, cluster: BaseCluster) -> int:
        """``f(F, S)``, one membership test per trajectory of ``S``."""
        return sum(1 for trid in participants(cluster) if trid in self.participants)


@dataclass
class ReferenceFormation:
    flows: list[ReferenceFlow] = field(default_factory=list)
    noise_flows: list[ReferenceFlow] = field(default_factory=list)
    min_card_used: int = 0

    def counters(self) -> dict[str, float]:
        """The ``neat.phase2.*`` values Phase 2 publishes for this outcome."""
        formed = self.flows + self.noise_flows
        return {
            "neat.phase2.flows_formed": float(len(formed)),
            "neat.phase2.merges": float(sum(len(f.members) - 1 for f in formed)),
            "neat.phase2.flows_kept": float(len(self.flows)),
            "neat.phase2.min_card_drops": float(len(self.noise_flows)),
            "neat.phase2.min_card_used": float(self.min_card_used),
        }


def form_flow_clusters(
    network: RoadNetwork, base_clusters: list[BaseCluster], config: NEATConfig
) -> ReferenceFormation:
    """Phase 2 over ``base_clusters``, densest seed first."""
    pool = {cluster.sid: cluster for cluster in base_clusters}
    seeds = sorted(base_clusters, key=lambda s: (-len(s.fragments), s.sid))
    formed: list[ReferenceFlow] = []
    for seed in seeds:
        if seed.sid not in pool:
            continue
        del pool[seed.sid]
        flow = ReferenceFlow(network, seed)
        for at_end in (True, False):
            _expand(network, flow, pool, config, at_end)
        formed.append(flow)

    min_card = config.min_card
    if min_card is None:
        cards = [flow.trajectory_cardinality for flow in formed]
        min_card = max(1, round(sum(cards) / len(cards))) if cards else 0
    result = ReferenceFormation(min_card_used=min_card)
    for flow in formed:
        kept = flow.trajectory_cardinality >= min_card
        (result.flows if kept else result.noise_flows).append(flow)
    return result


def _expand(network, flow, pool, config, at_end) -> None:
    while True:
        frontier = flow.members[-1] if at_end else flow.members[0]
        node = flow.end_node if at_end else flow.front_node
        candidates = sorted(
            (
                pool[sid]
                for sid in network.adjacent_segments_at(frontier.sid, node)
                if sid in pool and netflow(frontier, pool[sid]) > 0
            ),
            key=lambda s: s.sid,
        )
        candidates = _undominated(frontier, candidates, config.beta)
        if not candidates:
            return
        chosen = _most_selective(network, frontier, flow, candidates, config)
        del pool[chosen.sid]
        if at_end:
            flow.append(chosen)
        else:
            flow.prepend(chosen)


def _undominated(frontier, candidates, beta):
    """Drop, one at a time, the first pair whose netflow dominates maxFlow."""
    if math.isinf(beta):
        return candidates
    remaining = list(candidates)
    while len(remaining) >= 2:
        max_flow = max(netflow(frontier, c) for c in remaining)
        if max_flow <= 0:
            break
        pair = next(
            (
                (a, b)
                for i, a in enumerate(remaining)
                for b in remaining[i + 1:]
                if netflow(a, b) > 0 and netflow(a, b) / max_flow >= beta
            ),
            None,
        )
        if pair is None:
            break
        remaining = [c for c in remaining if c is not pair[0] and c is not pair[1]]
    return remaining


def _most_selective(network, frontier, flow, candidates, config):
    """The candidate with the highest ``SF`` (Definition 10), ties broken
    on netflow with the flow, then with the frontier, density and sid."""
    cardinality = max(1, len(participants(frontier)))
    density_total = len(frontier.fragments) + sum(len(c.fragments) for c in candidates)
    speed_total = sum(network.segment(c.sid).speed_limit for c in candidates)

    def key(candidate):
        q = netflow(frontier, candidate) / cardinality
        k = len(candidate.fragments) / density_total if density_total else 0.0
        v = (
            network.segment(candidate.sid).speed_limit / speed_total
            if speed_total
            else 0.0
        )
        return (
            config.wq * q + config.wk * k + config.wv * v,
            flow.netflow_with(candidate),
            netflow(frontier, candidate),
            len(candidate.fragments),
            -candidate.sid,
        )

    return max(candidates, key=key)
