"""Shortest-path entry points on road networks.

Every search runs on the flat-array :class:`~repro.roadnet.csr.CSRGraph`
snapshot (:meth:`RoadNetwork.csr`).  This module holds the two ways in:

* :func:`shortest_route` — the routing entry point: Euclidean A* with
  path recovery, used by the trip simulator and by Phase 1's junction
  crossing inference;
* :class:`ShortestPathEngine` — a caching distance oracle that counts
  searches, so the ELB experiments (Figure 7) can report exactly how
  many shortest-path computations a clustering run performed.  It
  answers uncached point queries with the bidirectional CSR search, and
  files planned multi-target searches run inline, in worker processes or
  on shard nodes (:meth:`ShortestPathEngine.prefetch_grouped`).

Directed searches respect one-way segments (used by the trip simulator);
undirected searches ignore direction (used by Phase 3's network proximity,
per Section III-C3 of the paper: "we consider undirected graphs").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .network import RoadNetwork

#: Sentinel distance for unreachable nodes.
INFINITY = math.inf


@dataclass(frozen=True, slots=True)
class Route:
    """A network path: node sequence plus the segments joining them.

    Attributes:
        nodes: Junction ids ``n_0 .. n_k`` along the path.
        sids: Segment ids ``e_0 .. e_{k-1}``; ``sids[i]`` joins
            ``nodes[i]`` and ``nodes[i+1]``.
        length: Total path length in metres.
    """

    nodes: tuple[int, ...]
    sids: tuple[int, ...]
    length: float

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.sids) + 1:
            raise ValueError(
                f"route shape mismatch: {len(self.nodes)} nodes, "
                f"{len(self.sids)} segments"
            )

    @property
    def source(self) -> int:
        """First junction of the route."""
        return self.nodes[0]

    @property
    def target(self) -> int:
        """Last junction of the route."""
        return self.nodes[-1]

    def reversed(self) -> "Route":
        """The same route traversed in the opposite direction."""
        return Route(tuple(reversed(self.nodes)), tuple(reversed(self.sids)), self.length)


def plan_source_groups(
    pairs: Iterable[tuple[int, int]],
) -> list[tuple[int, tuple[int, ...]]]:
    """Group endpoint pairs into multi-target single-source searches.

    Greedy set cover over the pair graph: repeatedly pick the node with
    the most uncovered partners as the next search source, emit one
    ``(source, targets)`` group answering every uncovered pair incident
    to it, and remove those pairs.  Every input pair lands in exactly one
    group, so ``len(groups)`` searches answer all of them — at most
    ``O(distinct endpoints)`` searches instead of one per pair.

    Deterministic: ties break toward the highest node id, adjacency sets
    are iterated sorted, and the result depends only on the *set* of
    normalized pairs (callers should deduplicate first).
    """
    partners: dict[int, set[int]] = {}
    for a, b in pairs:
        if a == b:
            continue
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    groups: list[tuple[int, tuple[int, ...]]] = []
    while partners:
        source = max(partners, key=lambda n: (len(partners[n]), n))
        targets = partners.pop(source)
        for target in targets:
            mates = partners.get(target)
            if mates is not None:
                mates.discard(source)
                if not mates:
                    del partners[target]
        groups.append((source, tuple(sorted(targets))))
    return groups


def shortest_route(
    network: RoadNetwork,
    source: int,
    target: int,
    directed: bool = True,
) -> Route:
    """The shortest route between two junctions, with path recovery.

    Runs :meth:`~repro.roadnet.csr.CSRGraph.shortest_route` (Euclidean A*)
    on the network's cached snapshot for the direction mode.

    Raises:
        UnknownNodeError: when either junction is not in the network.
        NoPathError: when ``target`` is unreachable from ``source``.
    """
    return network.csr(directed).shortest_route(source, target)


@dataclass
class ShortestPathEngine:
    """A caching, instrumented shortest-path oracle for one network.

    Phase 3 of NEAT repeatedly asks for network distances between flow
    cluster endpoints.  This engine memoizes node-pair distances (symmetric
    in the undirected case) and counts how many actual searches ran, which
    is the quantity the ELB optimization of Figure 7 reduces.

    A long-lived engine is meant to be shared across runs (that is how
    :class:`~repro.core.pipeline.NEAT` amortizes Phase 3 work), so the
    counters are cumulative by default; call :meth:`reset_counters`
    between runs to report per-run Figure-7 numbers, or bind a
    per-run registry with :meth:`bind_metrics` and read the deltas there.

    Bounded queries: ``distance(..., cutoff=c)`` runs a bounded search
    that stops as soon as the frontier proves the pair farther than
    ``c`` apart, returning :data:`INFINITY`.  Such verdicts are cached in
    a *separate* bounded table keyed by the largest cutoff they hold for,
    so a later unbounded (or larger-cutoff) query recomputes correctly
    instead of inheriting a truncated answer.

    Attributes:
        network: The road network queried.
        directed: Whether searches respect one-way segments.
        computations: Number of searches actually executed (cache hits are
            free and not counted).
        oracle: Optional accelerated backend (e.g.
            :class:`~repro.roadnet.landmarks.LandmarkOracle`) — any object
            with a ``distance(source, target) -> float`` method.  Only
            valid for undirected engines; results must equal Dijkstra's.
            Without one, point queries run bidirectional Dijkstra over
            the network's flat-array
            :meth:`~repro.roadnet.network.RoadNetwork.csr` snapshot.
        cache_hits: Number of ``distance`` calls answered from the memo
            table (identity queries are not counted).
        nodes_expanded: Total nodes settled across all Dijkstra searches
            (0 for oracle-backed answers, which do not run a search).
        grouped_searches: Multi-target kernel runs filed by
            :meth:`prefetch_grouped`, wherever they ran (each also
            counts once in ``computations``).
        warm_hits: Cache hits answered by entries loaded from a persisted
            distance cache (:meth:`absorb_cache`) —
            the restart-warm-start quantity ``sp.cache.warm_hits`` tracks.
    """

    network: RoadNetwork
    directed: bool = False
    computations: int = 0
    oracle: object | None = None
    cache_hits: int = 0
    nodes_expanded: int = 0
    grouped_searches: int = 0
    warm_hits: int = 0
    _cache: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)
    # key -> largest cutoff the pair is proven to exceed.
    _bounded: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)
    # Keys whose next lookup is the delivery of a prefetched computation;
    # consuming one is neither a cache hit nor a new computation, keeping
    # counters identical between lazy and prefetched execution.
    _prepaid: set[tuple[int, int]] = field(default_factory=set, repr=False)
    # Keys absorbed from a persisted cache; hits on them count warm_hits.
    _warm: set[tuple[int, int]] = field(default_factory=set, repr=False)
    # (network version, landmark count, LandmarkOracle) memo of
    # landmark_bounds; rebuilt when the network mutates.
    _landmarks: tuple | None = field(default=None, repr=False, compare=False)
    _metric_computations: object | None = field(
        default=None, repr=False, compare=False
    )
    _metric_cache_hits: object | None = field(default=None, repr=False, compare=False)
    _metric_expanded: object | None = field(default=None, repr=False, compare=False)
    _metric_grouped: object | None = field(default=None, repr=False, compare=False)
    _metric_warm_hits: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.oracle is not None and self.directed:
            raise ValueError("accelerated oracles are undirected-only")

    # ------------------------------------------------------------------
    def _key(self, source: int, target: int) -> tuple[int, int]:
        if not self.directed and source > target:
            return (target, source)
        return (source, target)

    def _count_hit(self, key: tuple[int, int] | None = None) -> None:
        self.cache_hits += 1
        if self._metric_cache_hits is not None:
            self._metric_cache_hits.inc()
        if key is not None and key in self._warm:
            self.warm_hits += 1
            if self._metric_warm_hits is not None:
                self._metric_warm_hits.inc()

    def _count_search(self, expanded: int) -> None:
        self.computations += 1
        if self._metric_computations is not None:
            self._metric_computations.inc()
        self.nodes_expanded += expanded
        if self._metric_expanded is not None:
            self._metric_expanded.inc(expanded)

    def _search(self, source: int, target: int, limit: float) -> tuple[float, int]:
        """One uncached point query over the CSR snapshot."""
        graph = self.network.csr(self.directed)
        return graph.bidirectional_distance_counted(source, target, limit)

    def distance(
        self, source: int, target: int, cutoff: float | None = None
    ) -> float:
        """Memoized shortest-path distance between two junctions.

        Args:
            cutoff: Optional bound; when given, a result of
                :data:`INFINITY` only means "farther than ``cutoff``",
                and the bounded verdict is cached separately so later
                unbounded queries still compute the true distance.
        """
        if source == target:
            return 0.0
        key = self._key(source, target)
        cached = self._cache.get(key)
        if cached is not None:
            if key in self._prepaid:
                self._prepaid.discard(key)
            else:
                self._count_hit(key)
            return cached
        if cutoff is not None:
            bound = self._bounded.get(key)
            if bound is not None and bound >= cutoff:
                # Already proven farther than this cutoff: answered from
                # the bounded table, no search.
                if key in self._prepaid:
                    self._prepaid.discard(key)
                else:
                    self._count_hit(key)
                return INFINITY
        if self.oracle is not None:
            self._count_search(0)
            distance = self.oracle.distance(key[0], key[1])
            self._cache[key] = distance
            self._bounded.pop(key, None)
            return distance
        limit = INFINITY if cutoff is None else cutoff
        distance, expanded = self._search(key[0], key[1], limit)
        self._count_search(expanded)
        self._store(key, distance, cutoff)
        return distance

    def _store(
        self, key: tuple[int, int], distance: float, cutoff: float | None
    ) -> None:
        """File a fresh search result under exact or bounded caching.

        An unbounded search (no cutoff, or an infinite one) that finds no
        path proves the pair unreachable: that is an exact answer.
        """
        if distance == INFINITY and cutoff is not None and cutoff < INFINITY:
            if cutoff > self._bounded.get(key, 0.0):
                self._bounded[key] = cutoff
            return
        self._cache[key] = distance
        self._bounded.pop(key, None)

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def unknown_pairs(
        self,
        pairs: Iterable[tuple[int, int]],
        cutoff: float | None = None,
    ) -> list[tuple[int, int]]:
        """The distinct normalized pairs neither memo table answers yet.

        In first-seen order, without identities, exact cache hits and
        (under ``cutoff``) pairs already proven farther than ``cutoff``.
        """
        needed: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for source, target in pairs:
            if source == target:
                continue
            key = self._key(source, target)
            if key in seen or key in self._cache:
                continue
            if cutoff is not None and self._bounded.get(key, -1.0) >= cutoff:
                continue
            seen.add(key)
            needed.append(key)
        return needed

    def prefetch(
        self,
        pairs: Iterable[tuple[int, int]],
        cutoff: float | None = None,
    ) -> int:
        """Compute and cache every not-yet-known pair in one batch.

        Runs one bidirectional CSR search per pair of
        :meth:`unknown_pairs`, as :meth:`distance` would.
        Results and the ``computations``/``nodes_expanded`` counters
        merge back into this engine exactly as if :meth:`distance` had
        computed each pair lazily, and the next :meth:`distance` call per
        prefetched pair is counted as that computation's delivery rather
        than a cache hit — so Figure-7 accounting is unchanged.

        Returns the number of searches executed.
        """
        needed = self.unknown_pairs(pairs, cutoff)
        if not needed:
            return 0
        limit = INFINITY if cutoff is None else cutoff
        if self.oracle is not None:
            results = [(self.oracle.distance(a, b), 0) for a, b in needed]
        else:
            results = [self._search(a, b, limit) for a, b in needed]
        for key, (value, expanded) in zip(needed, results):
            self._count_search(expanded)
            self._store(key, value, cutoff)
            self._prepaid.add(key)
        return len(needed)

    def prefetch_grouped(
        self,
        groups: Sequence[tuple[int, tuple[int, ...]]],
        cutoff: float | None = None,
        executor: Callable | None = None,
    ) -> int:
        """Run planned multi-target searches and file every answer.

        ``groups`` are ``(source, targets)`` searches over normalized
        pairs this engine does not know yet, grouped by
        :func:`plan_source_groups` (Phase 3 plans them once, in
        :func:`~repro.core.refinement.plan_phase3`).  ``executor(groups,
        limit)`` runs them and returns one ``(found, expanded)`` per
        group, ``found`` mapping each target settled within ``limit`` to
        its distance; the default is :meth:`search_groups` inline (bind
        its ``workers`` for the pool).  Whatever ran them, this is
        the one place results are stored: each group counts once in
        ``computations`` and ``grouped_searches`` (its settled nodes in
        ``nodes_expanded``), and the next :meth:`distance` call per
        answered pair is the computation's delivery, not a cache hit —
        so counters are identical at any worker or node count.

        Returns the number of searches filed.
        """
        if not groups:
            return 0
        limit = INFINITY if cutoff is None else cutoff
        results = (executor or self.search_groups)(groups, limit)
        for (source, targets), (found, expanded) in zip(groups, results):
            self._count_search(expanded)
            self.grouped_searches += 1
            if self._metric_grouped is not None:
                self._metric_grouped.inc()
            for target in targets:
                key = self._key(source, target)
                self._store(key, found.get(target, INFINITY), cutoff)
                self._prepaid.add(key)
        return len(groups)

    def distance_many(
        self,
        pairs: Iterable[tuple[int, int]],
        cutoff: float | None = None,
    ) -> list[float]:
        """Distances for every pair, in order (batch of :meth:`distance`).

        Equivalent to ``[engine.distance(s, t, cutoff) for s, t in
        pairs]`` — identical values, cache state and counters — but the
        uncached searches run as one deduplicated batch.
        """
        pair_list = list(pairs)
        self.prefetch(pair_list, cutoff=cutoff)
        return [self.distance(s, t, cutoff=cutoff) for s, t in pair_list]

    def search_groups(
        self,
        groups: Sequence[tuple[int, tuple[int, ...]]],
        limit: float,
        workers: int | None = 1,
    ) -> list[tuple[dict[int, float], int]]:
        """The inline and pool executors of :meth:`prefetch_grouped`.

        One bounded multi-target kernel per group, inline or in the
        worker pool (:func:`~repro.parallel.map_flat` runs too small a
        batch inline).  The parallel path is zero-copy: workers attach the
        shared CSR snapshot registered with the persistent pool, and the
        groups are shipped as one flat int64 batch segment with per-task
        (offset, length) descriptors.  Each group is flat-encoded as
        ``[source, n_targets, targets...]`` (self-delimiting, so a worker
        walks exactly its span).
        """
        from array import array
        from functools import partial

        from ..parallel import csr_resource, map_flat

        flat = array("q")
        boundaries = [0]
        for source, targets in groups:
            flat.append(source)
            flat.append(len(targets))
            flat.extend(targets)
            boundaries.append(len(flat))
        return map_flat(
            partial(_csr_groups_kernel, limit),
            csr_resource(self.network, self.directed),
            "q",
            flat,
            boundaries,
            workers=workers,
            min_items_per_worker=MIN_GROUPS_PER_WORKER,
        )

    # ------------------------------------------------------------------
    # Landmark lower bounds
    # ------------------------------------------------------------------
    def landmark_bounds(self, count: int = 8):
        """A memoized :class:`~repro.roadnet.landmarks.LandmarkOracle`.

        Built lazily on first use and rebuilt when the network mutates
        (the memo is keyed on ``network.version``) or when a larger
        ``count`` is requested.  The landmark sweeps run outside this
        engine's counters.

        Nothing in the pipeline calls it since Phase 3 lost its landmark
        (LLB) prune tier.  It stays, with its ``_landmarks`` memo, only
        because the benchmark's layer tracer (``neatbench/layers.py``)
        names it; it goes once a benchmark change drops that trace.

        Raises:
            ValueError: on a directed engine (landmark tables are
                undirected sweeps, Phase 3's setting).
        """
        if self.directed:
            raise ValueError("landmark bounds are undirected-only")
        version = self.network.version
        memo = self._landmarks
        if memo is not None and memo[0] == version and memo[1] >= count:
            return memo[2]
        from .landmarks import LandmarkOracle

        oracle = LandmarkOracle(self.network, landmark_count=count)
        self._landmarks = (version, count, oracle)
        return oracle

    # ------------------------------------------------------------------
    # Persistent-cache interchange (repro.persist.distcache)
    # ------------------------------------------------------------------
    def export_cache(
        self,
    ) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
        """Copies of the exact and bounded memo tables, for persistence."""
        return dict(self._cache), dict(self._bounded)

    def absorb_cache(
        self,
        exact: dict[tuple[int, int], float],
        bounded: dict[tuple[int, int], float],
    ) -> int:
        """Merge previously exported memo tables into this engine.

        Existing entries win (they were computed against this very
        network instance); absorbed keys are normalized and tracked so
        hits on them count ``warm_hits``.

        Returns the number of entries absorbed.
        """
        added = 0
        for (source, target), value in exact.items():
            key = self._key(source, target)
            if key in self._cache:
                continue
            self._cache[key] = value
            self._bounded.pop(key, None)
            added += 1
            self._warm.add(key)
        for (source, target), bound in bounded.items():
            key = self._key(source, target)
            if key in self._cache:
                continue
            if bound > self._bounded.get(key, 0.0):
                self._bounded[key] = bound
                added += 1
                self._warm.add(key)
        return added

    def bind_metrics(self, registry) -> None:
        """Mirror this engine's counters into ``registry`` from now on.

        Args:
            registry: A :class:`~repro.obs.metrics.MetricsRegistry`; the
                engine increments its ``roadnet.sp.computations``,
                ``roadnet.sp.cache_hits`` and ``roadnet.sp.nodes_expanded``
                counters alongside the plain attributes.  Binding a fresh
                per-run registry therefore yields per-run deltas even on a
                warm shared engine.  Pass ``None`` to unbind.
        """
        if registry is None:
            self._metric_computations = None
            self._metric_cache_hits = None
            self._metric_expanded = None
            self._metric_grouped = None
            self._metric_warm_hits = None
            return
        self._metric_computations = registry.counter(
            "roadnet.sp.computations", "Shortest-path searches actually executed"
        )
        self._metric_cache_hits = registry.counter(
            "roadnet.sp.cache_hits", "Distance queries answered from the memo table"
        )
        self._metric_expanded = registry.counter(
            "roadnet.sp.nodes_expanded", "Nodes settled across all Dijkstra searches"
        )
        self._metric_grouped = registry.counter(
            "roadnet.sp.grouped_searches",
            "Multi-target single-source kernels run by the tiered oracle",
        )
        self._metric_warm_hits = registry.counter(
            "sp.cache.warm_hits",
            "Distance queries answered by entries from a persisted cache",
        )

    def reset_counters(self) -> None:
        """Zero every counter (cache contents are kept).

        Call between back-to-back runs sharing one engine so each run
        reports its own Figure-7 numbers rather than cumulative totals.
        """
        self.computations = 0
        self.cache_hits = 0
        self.nodes_expanded = 0
        self.grouped_searches = 0
        self.warm_hits = 0

    def clear(self) -> None:
        """Drop the memo tables (exact and bounded) and zero counters."""
        self._cache.clear()
        self._bounded.clear()
        self._prepaid.clear()
        self._warm.clear()
        self.reset_counters()


#: Below this many grouped kernels per worker a batch runs serially —
#: pool startup would otherwise dominate the Dijkstra work.
MIN_GROUPS_PER_WORKER = 4


def _csr_groups_kernel(
    cutoff: float, graph, view, lo: int, hi: int
) -> list[tuple[dict[int, float], int]]:
    """Span kernel over a flat grouped-search batch.

    Each group is self-delimiting: ``[source, n_targets, targets...]``.
    The kernel walks its ``[lo, hi)`` element range and runs one bounded
    multi-target search per group, exactly as the serial batch does.
    """
    results = []
    i = lo
    while i < hi:
        source = view[i]
        n_targets = view[i + 1]
        targets = tuple(view[i + 2:i + 2 + n_targets])
        i += 2 + n_targets
        results.append(graph.multi_target_distances(source, targets, cutoff))
    return results
