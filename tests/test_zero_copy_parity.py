"""Zero-copy acceptance: byte-identical output everywhere it must be.

Three parity axes, each of which the zero-copy core could plausibly
break and therefore must be pinned:

* worker count — shared-memory CSR kernels vs serial inline runs;
* shortest-path reference — the CSR engine at every worker count vs an
  engine answering from the plain dict-of-lists Dijkstra;
* vector backend — the numpy ELB kernel vs the stdlib loops
  (hypothesis drives the guard band with adversarial coordinates right
  at the eps boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.roadnet.shortest_path as sp_module
from repro.core import NEAT, NEATConfig
from repro.core.bounds import elb_far_mask
from repro.core.refinement import euclidean_lower_bound
from repro.errors import ConfigError
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.roadnet import GridConfig, generate_grid_network
from repro.vec import get_numpy, resolve_vector_backend

from conftest import dijkstra_reference_engine

HAVE_NUMPY = get_numpy() is not None

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy absent or disabled via REPRO_NO_NUMPY"
)


# ----------------------------------------------------------------------
# Mask parity (hypothesis): numpy and python kernels must decide alike.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StubFlow:
    endpoints: tuple[int, int]


class _StubNetwork:
    """node_point-only network stub over explicit coordinates."""

    def __init__(self, points):
        from repro.roadnet.geometry import Point

        self._points = {i: Point(x, y) for i, (x, y) in enumerate(points)}

    def node_point(self, node_id):
        return self._points[node_id]


def _flows(point_count: int):
    return [
        _StubFlow((2 * i, 2 * i + 1)) for i in range(point_count // 2)
    ]


# Coordinates clustered near multiples of eps so many endpoint
# distances land exactly at / within ulps of the decision boundary —
# the adversarial case for the squared-distance guard band.
_EPS = 1000.0
_coord = st.one_of(
    st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
    st.sampled_from([0.0, _EPS, 2.0 * _EPS, _EPS + 1e-9, _EPS - 1e-9,
                     math.nextafter(_EPS, 0.0), math.nextafter(_EPS, math.inf)]),
)


@needs_numpy
class TestMaskParity:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(_coord, _coord), min_size=4, max_size=16))
    def test_elb_mask_numpy_equals_python(self, points):
        if len(points) % 2:
            points = points[:-1]
        network = _StubNetwork(points)
        flows = _flows(len(points))
        python_mask = elb_far_mask(network, flows, _EPS, "python")
        numpy_mask = elb_far_mask(network, flows, _EPS, "numpy")
        assert bytes(python_mask) == bytes(numpy_mask)
        # And both encode exactly the scalar decisions.
        n = len(flows)
        for i in range(n):
            for j in range(n):
                expected = i != j and (
                    euclidean_lower_bound(network, flows[i], flows[j]) > _EPS
                )
                assert bool(python_mask[i * n + j]) == expected


class TestRowMask:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(_coord, _coord), min_size=4, max_size=16),
        st.integers(min_value=1, max_value=8),
    )
    def test_rows_from_start_equal_the_full_mask(self, points, start):
        # The rows of the flows from ``start`` on, as an incremental
        # refresh asks for them: the stdlib kernel, and the numpy one
        # when present, give exactly the full mask's rows.
        if len(points) % 2:
            points = points[:-1]
        network = _StubNetwork(points)
        flows = _flows(len(points))
        n = len(flows)
        start = min(start, n)
        full = elb_far_mask(network, flows, _EPS, "python")
        python_rows = elb_far_mask(network, flows, _EPS, "python", start)
        assert len(python_rows) == (n - start) * n
        assert bytes(python_rows) == bytes(full[start * n:])
        for j in range(start, n):
            for i in range(n):
                expected = i != j and (
                    euclidean_lower_bound(network, flows[i], flows[j]) > _EPS
                )
                assert bool(python_rows[(j - start) * n + i]) == expected
        if HAVE_NUMPY:
            numpy_rows = elb_far_mask(network, flows, _EPS, "numpy", start)
            assert bytes(numpy_rows) == bytes(python_rows)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestVectorBackendResolution:
    def test_auto_resolves(self):
        assert resolve_vector_backend("auto") == (
            "numpy" if HAVE_NUMPY else "python"
        )

    def test_numpy_respects_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert get_numpy() is None
        assert resolve_vector_backend("auto") == "python"

    def test_unknown_setting_rejected(self):
        # "auto" is the one setting: both paths decide alike.
        for setting in ("numpy", "python", "cuda"):
            with pytest.raises(ConfigError):
                resolve_vector_backend(setting)


# ----------------------------------------------------------------------
# Whole-pipeline parity: worker counts, the Dijkstra reference, vector
# backends.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    network = generate_grid_network(GridConfig(rows=10, cols=10, seed=11))
    dataset = simulate_dataset(
        network,
        SimulationConfig(object_count=60, seed=13, name="zero-copy-parity"),
    )
    return network, dataset


def _force_small_thresholds(monkeypatch):
    monkeypatch.setattr(sp_module, "MIN_GROUPS_PER_WORKER", 1)


def _run_key(result):
    return sorted(
        sorted((flow.endpoints, flow.route_length, tuple(sorted(flow.participants)))
               for flow in cluster.flows)
        for cluster in result.clusters
    )


class TestPipelineParity:
    def test_every_worker_count_matches_serial(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        baseline = None
        for workers in (1, 2, 3, 4):
            neat = NEAT(network, NEATConfig(eps=1400.0, workers=workers))
            result = neat.run_opt(dataset)
            key = (_run_key(result), result.refinement_stats,
                   neat.engine.computations, neat.engine.cache_hits,
                   neat.engine.nodes_expanded)
            if baseline is None:
                baseline = key
            else:
                assert key == baseline, f"workers={workers} diverged"

    def test_backends_match_at_every_worker_count(self, workload, monkeypatch):
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        reference = NEAT(
            network, NEATConfig(eps=1400.0),
            engine=dijkstra_reference_engine(network),
        )
        want = _run_key(reference.run_opt(dataset))
        for workers in (1, 3):
            neat = NEAT(network, NEATConfig(eps=1400.0, workers=workers))
            assert _run_key(neat.run_opt(dataset)) == want, f"workers={workers}"

    def test_vector_backends_match(self, workload, monkeypatch):
        # Phase 3 picks numpy whenever it is importable; REPRO_NO_NUMPY
        # (the switch the numpy-absent CI leg uses) forces the stdlib
        # loops.
        _force_small_thresholds(monkeypatch)
        network, dataset = workload
        outs = {}
        for disable in ([True, False] if HAVE_NUMPY else [True]):
            if disable:
                monkeypatch.setenv("REPRO_NO_NUMPY", "1")
            else:
                monkeypatch.delenv("REPRO_NO_NUMPY")
            neat = NEAT(network, NEATConfig(eps=1400.0, workers=2))
            result = neat.run_opt(dataset)
            outs[resolve_vector_backend()] = (
                _run_key(result), result.refinement_stats
            )
        assert set(outs) == ({"python", "numpy"} if HAVE_NUMPY else {"python"})
        assert all(out == outs["python"] for out in outs.values())
