"""Tiered distance oracle: multi-target kernels, grouping, ELB pruning.

The batched oracle is a pure acceleration: every test here pins either
exact numeric equivalence with the per-pair searches and the
dict-of-lists reference walkers, deterministic counter parity across
worker counts, or cluster-output invariance across the oracle tiers.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.core.serialize import result_to_dict
from repro.roadnet import (
    INFINITY,
    ShortestPathEngine,
    plan_source_groups,
)

from conftest import pairwise_reference
from reference_sp import (
    dijkstra_distance,
    dijkstra_distance_counted,
    dijkstra_multi_target,
)
from test_csr import random_network, sample_pairs


def prefetch_pairs(engine, pairs, cutoff, workers=1):
    """Plan ``pairs`` as Phase 3 plans its endpoint pairs, then run the
    groups through the engine's one store path."""
    groups = plan_source_groups(engine.unknown_pairs(pairs, cutoff=cutoff))
    return engine.prefetch_grouped(
        groups, cutoff=cutoff,
        executor=partial(engine.search_groups, workers=workers),
    )


class TestMultiTargetKernel:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_per_pair_distances(self, seed):
        network = random_network(seed)
        rng = random.Random(seed + 1)
        ids = network.node_ids()
        source = rng.choice(ids)
        targets = tuple(sorted(rng.sample(ids, 12)))
        graph = network.csr(directed=False)

        found, expanded = graph.multi_target_distances(source, targets)
        assert expanded > 0
        for target in targets:
            want = dijkstra_distance(network, source, target)
            if want == INFINITY:
                assert target not in found
            else:
                assert found[target] == want

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_cutoff_semantics(self, seed):
        """Targets beyond the cutoff are absent, never wrong."""
        network = random_network(seed)
        rng = random.Random(seed + 2)
        ids = network.node_ids()
        source = rng.choice(ids)
        targets = tuple(sorted(rng.sample(ids, 12)))
        cutoff = 350.0
        graph = network.csr(directed=False)

        found, _ = graph.multi_target_distances(source, targets, cutoff=cutoff)
        for target in targets:
            want = dijkstra_distance(network, source, target)
            if want <= cutoff:
                assert found[target] == want
            else:
                assert target not in found

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_dict_backend_agrees_with_csr(self, seed):
        network = random_network(seed)
        rng = random.Random(seed + 3)
        ids = network.node_ids()
        source = rng.choice(ids)
        targets = tuple(sorted(rng.sample(ids, 10)))
        graph = network.csr(directed=False)

        csr_found, csr_expanded = graph.multi_target_distances(
            source, targets, cutoff=500.0
        )
        dict_found, dict_expanded = dijkstra_multi_target(
            network, source, targets, cutoff=500.0
        )
        assert dict_found == csr_found
        assert dict_expanded == csr_expanded

    def test_source_as_target_is_free(self):
        network = random_network(5)
        source = network.node_ids()[0]
        graph = network.csr(directed=False)
        found, expanded = graph.multi_target_distances(source, (source,))
        assert found == {source: 0.0}
        assert expanded == 0

    def test_early_exit_settles_fewer_nodes(self):
        """Near targets must not pay for a full single-source sweep."""
        network = random_network(7, rows=9, cols=9)
        ids = network.node_ids()
        source = ids[0]
        near = tuple(sorted(ids[1:3]))
        graph = network.csr(directed=False)
        _, expanded_near = graph.multi_target_distances(source, near)
        _, expanded_all = graph.multi_target_distances(source, tuple(ids[1:]))
        assert expanded_near < expanded_all


class TestSourceGroupPlanner:
    def test_covers_every_pair_exactly_once(self):
        network = random_network(13)
        pairs = {
            (a, b) if a <= b else (b, a)
            for a, b in sample_pairs(network, 13, count=80)
            if a != b
        }
        groups = plan_source_groups(pairs)
        covered = set()
        for source, targets in groups:
            assert len(set(targets)) == len(targets)
            for target in targets:
                key = (source, target) if source <= target else (target, source)
                assert key not in covered, "pair answered twice"
                covered.add(key)
        assert covered == pairs

    def test_groups_beat_per_pair_search_count(self):
        network = random_network(17)
        pairs = [(a, b) for a, b in sample_pairs(network, 17, count=80) if a != b]
        groups = plan_source_groups(pairs)
        assert len(groups) < len({tuple(sorted(p)) for p in pairs})

    def test_deterministic_and_order_independent(self):
        network = random_network(19)
        pairs = [(a, b) for a, b in sample_pairs(network, 19, count=60) if a != b]
        shuffled = list(pairs)
        random.Random(0).shuffle(shuffled)
        assert plan_source_groups(pairs) == plan_source_groups(shuffled)

    def test_identity_pairs_dropped(self):
        assert plan_source_groups([(4, 4)]) == []


class TestGroupedPrefetch:
    def _pairs(self, network, seed):
        return [(a, b) for a, b in sample_pairs(network, seed, count=60) if a != b]

    @pytest.mark.parametrize("backend", ["csr", "dict"])
    def test_distances_match_lazy_engine(self, backend):
        """Grouped answers match per-pair point queries: the engine's
        own CSR searches, or the dict-of-lists reference walker."""
        network = random_network(23)
        pairs = self._pairs(network, 23)
        cutoff = 600.0

        if backend == "csr":
            lazy = ShortestPathEngine(network)
            lazy_values = [lazy.distance(a, b, cutoff=cutoff) for a, b in pairs]
        else:
            lazy_values = [
                dijkstra_distance(network, a, b, cutoff=cutoff) for a, b in pairs
            ]

        grouped = ShortestPathEngine(network)
        prefetch_pairs(grouped, pairs, cutoff)
        grouped_values = [grouped.distance(a, b, cutoff=cutoff) for a, b in pairs]

        for got, want in zip(grouped_values, lazy_values):
            if got == INFINITY or want == INFINITY:
                assert got == want
            else:
                assert got == want or abs(got - want) <= 1e-9 * max(got, want)
        # The whole point: far fewer executed searches than unique pairs.
        assert grouped.computations < len({tuple(sorted(p)) for p in pairs})
        assert grouped.grouped_searches == grouped.computations

    def test_serial_parallel_counter_parity(self):
        network = random_network(31)
        pairs = self._pairs(network, 31)
        engines = {}
        for workers in (1, 3):
            engine = ShortestPathEngine(network)
            prefetch_pairs(engine, pairs, 700.0, workers=workers)
            engines[workers] = engine
        serial, parallel = engines[1], engines[3]
        assert serial.computations == parallel.computations
        assert serial.grouped_searches == parallel.grouped_searches
        assert serial.nodes_expanded == parallel.nodes_expanded
        assert serial.export_cache() == parallel.export_cache()

    def test_backend_counter_parity(self):
        """Each grouped CSR search finds exactly what the dict-of-lists
        reference :func:`dijkstra_multi_target` finds, settling exactly as
        many nodes, so the engine's accounting and cache are the
        reference's."""
        network = random_network(37)
        pairs = self._pairs(network, 37)
        cutoff = 700.0
        engine = ShortestPathEngine(network)
        prefetch_pairs(engine, pairs, cutoff)

        groups = plan_source_groups({tuple(sorted(p)) for p in pairs})
        exact, bounded, settled = {}, {}, 0
        for source, targets in groups:
            found, expanded = dijkstra_multi_target(
                network, source, targets, cutoff=cutoff
            )
            settled += expanded
            for target in targets:
                key = (min(source, target), max(source, target))
                if target in found:
                    exact[key] = found[target]
                else:
                    bounded[key] = cutoff
        assert engine.computations == engine.grouped_searches == len(groups)
        assert engine.nodes_expanded == settled
        assert engine.export_cache() == (exact, bounded)

    def test_prefetched_delivery_is_not_a_cache_hit(self):
        network = random_network(41)
        pairs = self._pairs(network, 41)[:10]
        engine = ShortestPathEngine(network)
        prefetch_pairs(engine, pairs, 700.0)
        hits_before = engine.cache_hits
        for a, b in pairs:
            engine.distance(a, b, cutoff=700.0)
        assert engine.cache_hits == hits_before  # prepaid deliveries
        engine.distance(*pairs[0], cutoff=700.0)
        assert engine.cache_hits == hits_before + 1  # genuine re-ask


def _digest(result) -> str:
    import hashlib
    import json

    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle_smoke():
    """ATL with 40 objects at eps 1600: the input whose Dijkstra work is pinned."""
    from repro.experiments.workloads import (
        WorkloadSpec,
        build_dataset,
        build_network,
    )

    network = build_network("ATL")
    return network, build_dataset(network, WorkloadSpec("ATL", 40)), 1600.0


class TestOracleTierEquivalence:
    """Per-pair and tiered oracles give identical clusters."""

    @staticmethod
    def _tiered_matches_pairwise(network, dataset, eps):
        config = NEATConfig(eps=eps, min_card=0)
        results = {"tiered": NEAT(network, config).run_opt(list(dataset))}
        with pairwise_reference():
            results["pairwise"] = NEAT(network, config).run_opt(list(dataset))
        assert _digest(results["tiered"]) == _digest(results["pairwise"])
        tiered, pairwise = (
            results["tiered"].refinement_stats,
            results["pairwise"].refinement_stats,
        )
        # Pruning tiers and Hausdorff evaluations are oracle-independent;
        # only the executed-search count may (and must) shrink.
        assert tiered.pair_checks == pairwise.pair_checks
        assert tiered.elb_pruned == pairwise.elb_pruned
        assert tiered.hausdorff_evaluations == pairwise.hausdorff_evaluations
        assert (
            tiered.shortest_path_computations
            < pairwise.shortest_path_computations
        )

    def test_tiered_matches_pairwise_clusters_and_stats(self, small_workload):
        self._tiered_matches_pairwise(*small_workload, 1000.0)

    def test_oracle_smoke_tiered_matches_pairwise(self, oracle_smoke):
        self._tiered_matches_pairwise(*oracle_smoke)


class TestOracleSmokeCounters:
    """The tiered oracle's Dijkstra work on the smoke input, pinned with
    10% headroom: a broken prune tier or grouping planner fails here."""

    @staticmethod
    def _tiered_run(network, dataset, eps) -> dict:
        neat = NEAT(network, NEATConfig(eps=eps, min_card=0))
        result = neat.run_opt(list(dataset))
        engine = neat.engine
        return {
            "digest": _digest(result),
            "refinement_stats": result.refinement_stats,
            "sp_computations": engine.computations,
            "grouped_searches": engine.grouped_searches,
            "nodes_expanded": engine.nodes_expanded,
            "cache_hits": engine.cache_hits,
        }

    def test_counters_within_committed_bounds(self, oracle_smoke):
        run = self._tiered_run(*oracle_smoke)
        assert run["sp_computations"] <= 1.10 * 48
        assert run["nodes_expanded"] <= 1.10 * 6_555

    def test_repeated_run_gives_identical_counters(self, oracle_smoke):
        first = self._tiered_run(*oracle_smoke)
        assert self._tiered_run(*oracle_smoke) == first


class TestLandmarkBoundsMemo:
    def test_memo_reused_until_network_mutates(self):
        network = random_network(43)
        engine = ShortestPathEngine(network)
        first = engine.landmark_bounds(count=4)
        assert engine.landmark_bounds(count=4) is first
        assert engine.landmark_bounds(count=3) is first  # subset suffices
        from repro.roadnet.geometry import Point

        network.add_junction(Point(9999.0, 9999.0))
        rebuilt = engine.landmark_bounds(count=4)
        assert rebuilt is not first
        assert rebuilt.is_current()
        assert not first.is_current()

    def test_directed_engines_refuse_landmarks(self):
        network = random_network(47)
        engine = ShortestPathEngine(network, directed=True)
        with pytest.raises(ValueError):
            engine.landmark_bounds()


class TestEngineCounterPlumbing:
    def test_reset_and_clear_cover_new_counters(self):
        network = random_network(53)
        pairs = [(a, b) for a, b in sample_pairs(network, 53, count=20) if a != b]
        engine = ShortestPathEngine(network)
        prefetch_pairs(engine, pairs, 500.0)
        assert engine.grouped_searches > 0
        engine.reset_counters()
        assert engine.grouped_searches == 0
        assert engine.warm_hits == 0
        exact, bounded = engine.export_cache()
        assert exact or bounded  # caches survive a counter reset
        engine.clear()
        assert engine.export_cache() == ({}, {})

    def test_grouped_searches_reach_bound_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        network = random_network(59)
        pairs = [(a, b) for a, b in sample_pairs(network, 59, count=20) if a != b]
        registry = MetricsRegistry()
        engine = ShortestPathEngine(network)
        engine.bind_metrics(registry)
        prefetch_pairs(engine, pairs, 500.0)
        assert registry.value("roadnet.sp.grouped_searches") == float(
            engine.grouped_searches
        )

    def test_multi_target_counts_match_point_queries(self):
        """One grouped search's expansions equal a full-cutoff sweep's."""
        network = random_network(61)
        ids = network.node_ids()
        source, target = ids[0], ids[-1]
        _, point_expanded = dijkstra_distance_counted(
            network, source, target, cutoff=300.0
        )
        assert point_expanded > 0
        found, group_expanded = dijkstra_multi_target(
            network, source, (target,), cutoff=300.0
        )
        assert group_expanded > 0
        if target in found:
            assert found[target] <= 300.0
