"""Tests for the process-wide GC-paused region (:mod:`repro.gcpause`).

The region helper: re-enabling after an exception, nesting, threads with
overlapping regions, a caller's own ``gc.disable()``, and a child forked
inside a region.  The wiring: each of NEAT's bulk-allocation entry points
does its work with the collector paused.
"""

from __future__ import annotations

import gc
import os
import sys
import threading

import pytest

from repro.core import base_cluster, fragmentation, serialize
from repro.core.base_cluster import form_base_clusters
from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.core.serialize import result_from_dict, result_to_dict
from repro.distributed import transport
from repro.distributed.transport import (
    clusters_from_packed,
    clusters_to_packed,
    trajectories_from_packed,
    trajectories_to_packed,
)
from repro.gcpause import gc_paused


@pytest.fixture(autouse=True)
def gc_enabled():
    """Every test starts and must end with the collector enabled."""
    gc.enable()
    yield
    assert gc_paused._depth == 0
    gc.enable()


class TestRegion:
    def test_pauses_and_resumes(self):
        with gc_paused:
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_resumes_after_exception(self):
        with pytest.raises(RuntimeError):
            with gc_paused:
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_decorator_resumes_after_exception(self):
        @gc_paused
        def fails():
            assert not gc.isenabled()
            raise ValueError("boom")

        with pytest.raises(ValueError):
            fails()
        assert gc.isenabled()

    def test_nested_regions_resume_exactly_once(self, monkeypatch):
        enables: list[bool] = []
        real_enable = gc.enable

        def counting_enable():
            enables.append(True)
            real_enable()

        monkeypatch.setattr(gc, "enable", counting_enable)
        with gc_paused:
            with gc_paused:
                with gc_paused:
                    pass
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        assert enables == [True]

    def test_deferred_young_collection_runs_at_region_end(self):
        threshold = gc.get_threshold()[0]
        with gc_paused:
            young = [[i] for i in range(10 * threshold)]
            assert gc.get_count()[0] > threshold
        assert gc.get_count()[0] < threshold
        assert len(young) == 10 * threshold

    def test_callers_own_disable_survives(self):
        gc.disable()
        with gc_paused:
            with gc_paused:
                pass
        assert not gc.isenabled()

    def test_overlapping_regions_in_two_threads(self):
        entered = threading.Event()
        release = threading.Event()
        observed: list[bool] = []

        def holder():
            with gc_paused:
                entered.set()
                release.wait(timeout=10)
                observed.append(gc.isenabled())

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(timeout=10)
        with gc_paused:
            pass
        # This thread's region closed while the other's is still open.
        assert not gc.isenabled()
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert observed == [False]
        assert gc.isenabled()

    def test_many_threads_stress(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        errors: list[BaseException] = []

        def churn():
            try:
                for _ in range(2000):
                    with gc_paused:
                        with gc_paused:
                            if gc.isenabled():
                                raise AssertionError("GC on inside a region")
            except BaseException as error:  # reported below
                errors.append(error)

        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc_paused._depth == 0
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_inside_a_region_starts_outside_it(self):
        with gc_paused:
            pid = os.fork()
            if pid == 0:  # child: report through the exit status only
                ok = gc.isenabled() and gc_paused._depth == 0
                with gc_paused:
                    ok = ok and not gc.isenabled()
                os._exit(0 if ok and gc.isenabled() else 1)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestEntryPoints:
    """Each bulk-allocation entry point does its work inside a region.

    A spy on a function each entry point calls for every item records
    whether the collector was running at that moment.
    """

    @pytest.fixture
    def run(self, small_workload):
        network, dataset = small_workload
        result = NEAT(network, NEATConfig(eps=500.0)).run_opt(dataset)
        return network, list(dataset), result

    @staticmethod
    def _gc_states_inside(monkeypatch, module, name, call) -> list[bool]:
        states: list[bool] = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        call()
        monkeypatch.undo()
        assert gc.isenabled()
        return states

    def test_entry_points_run_paused(self, run, monkeypatch):
        network, trajectories, result = run
        document = result_to_dict(result)
        packed_trajectories = trajectories_to_packed(trajectories)
        packed_clusters = clusters_to_packed(result.base_clusters)
        cases = [
            (base_cluster, "group_fragments",
             lambda: form_base_clusters(network, trajectories)),
            (fragmentation, "fragment_trajectory",
             lambda: fragmentation.fragment_all(network, trajectories)),
            (serialize, "_cluster_to_dict", lambda: result_to_dict(result)),
            (serialize, "_fragment_from_dict",
             lambda: result_from_dict(document, network)),
            (transport, "Trajectory",
             lambda: trajectories_from_packed(packed_trajectories)),
            (transport, "_trusted_fragment",
             lambda: clusters_from_packed(packed_clusters)),
        ]
        for module, name, call in cases:
            states = self._gc_states_inside(monkeypatch, module, name, call)
            assert states, name
            assert not any(states), name
