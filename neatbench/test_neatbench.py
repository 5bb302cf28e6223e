"""Tests of the benchmark's own arithmetic and gates.

Run from the repository root: ``python3 -m pytest -q neatbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from neatbench import gates, measure  # noqa: E402
from neatbench.spans import Span, SpanRecorder, self_time  # noqa: E402


# -- host adjustment ---------------------------------------------------
def test_adjust_scales_by_reference_over_probe():
    assert measure.adjust(2.0, 0.050, probe_ref_s=0.025) == pytest.approx(1.0)
    assert measure.adjust(2.0, 0.0125, probe_ref_s=0.025) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        measure.adjust(1.0, 0.0)


def test_adjust_with_elasticity_follows_the_probe_in_part():
    # On a host twice as slow as the reference an elasticity-1 call is
    # halved, one of elasticity 0.5 divided by sqrt(2), one of 0 kept.
    assert measure.adjust(2.0, 0.050, probe_ref_s=0.025, elasticity=0.5) == \
        pytest.approx(2.0 / 2 ** 0.5)
    assert measure.adjust(2.0, 0.050, probe_ref_s=0.025, elasticity=0.0) == 2.0
    clock = measure.HostClock(probe_fn=lambda: 0.0, elasticity=0.5)
    clock.probes = [(0.0, 0.1), (1.0, 0.1)]
    assert clock.adjusted([measure.Interval(0.4, 0.6)]) == pytest.approx(
        0.2 * (measure.PROBE_REF_S / 0.1) ** 0.5)
    assert clock.factor() == pytest.approx((measure.PROBE_REF_S / 0.1) ** 0.5)


def test_host_clock_averages_probes_within_its_window():
    probes = iter([0.020, 0.030])
    clock = measure.HostClock(probe_fn=lambda: next(probes))
    value, interval = clock.timed(lambda: "done")
    assert value == "done"
    assert [p for _, p in clock.probes] == [0.020, 0.030]
    assert clock.probe_for(interval) == pytest.approx(0.025)
    assert clock.adjusted([interval]) == pytest.approx(
        interval.raw_s * measure.PROBE_REF_S / 0.025
    )


def test_host_clock_window_grows_with_the_call():
    clock = measure.HostClock(probe_fn=lambda: 0.0)
    clock.probes = [(0.0, 0.010), (10.0, 0.020), (10.5, 0.030), (30.0, 0.040)]
    # A 0.2 s call sees probes within 1 s of it (5 x 0.2 s).
    assert clock.probe_for(measure.Interval(10.2, 10.4)) == pytest.approx(0.025)
    # A 0.02 s call still sees its neighbours within the 0.3 s minimum.
    assert clock.probe_for(measure.Interval(10.1, 10.12)) == pytest.approx(0.020)
    # A 2 s call sees probes within 10 s of it.
    assert clock.probe_for(measure.Interval(19.0, 21.0)) == pytest.approx(0.030)
    # No probe within the window: the nearest one stands in.
    assert clock.probe_for(measure.Interval(15.0, 15.1)) == pytest.approx(0.030)
    # A sample made of two parts adds their adjusted seconds.
    parts = [measure.Interval(10.0, 10.1), measure.Interval(29.9, 30.0)]
    assert clock.adjusted(parts) == pytest.approx(
        0.1 * measure.PROBE_REF_S / 0.025 + 0.1 * measure.PROBE_REF_S / 0.040
    )


def test_host_clock_refuses_to_adjust_without_probes():
    with pytest.raises(ValueError):
        measure.HostClock(probe_fn=lambda: 0.0).probe_for(measure.Interval(0.0, 1.0))


def test_slow_host_and_fast_host_agree_after_adjustment():
    # The same work, measured while the host ran at half and at full speed.
    slow = measure.adjust(2.0, probe_s=2 * measure.PROBE_REF_S)
    fast = measure.adjust(1.0, probe_s=measure.PROBE_REF_S)
    assert slow == pytest.approx(fast)


# -- percentile rule ---------------------------------------------------
def test_p90_refused_below_100_samples():
    with pytest.raises(measure.PercentileRefused):
        measure.percentile([float(i) for i in range(99)], 90)
    assert measure.percentile([float(i) for i in range(100)], 90) == 89.0


def test_p50_needs_20_samples():
    with pytest.raises(measure.PercentileRefused):
        measure.percentile([1.0] * 19, 50)
    assert measure.percentile([float(i) for i in range(1, 21)], 50) == 10.0


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = measure.quartiles(values)
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert measure.spread(values) == pytest.approx(1.0)


# -- self time ---------------------------------------------------------
def test_self_time_subtracts_children_once():
    parent = Span("p", 0.0, 10.0)
    children = [Span("a", 1.0, 3.0), Span("b", 2.0, 4.0), Span("c", 9.0, 12.0)]
    # Covered: [1, 4] (a and b overlap) plus [9, 10] (c clipped) = 4 s.
    assert self_time(parent, children) == pytest.approx(6.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_recorder_nests_spans_and_restores_wrapped_functions():
    from repro.core import base_cluster, pipeline
    from repro.roadnet import line_network

    network = line_network(3)
    original = base_cluster.form_base_clusters
    recorder = SpanRecorder()
    recorder.wrap_function(base_cluster, "form_base_clusters", "phase1")
    try:
        assert pipeline.form_base_clusters is not original
        recorder.span("root", lambda: pipeline.form_base_clusters(network, []))
    finally:
        recorder.unwrap_all()
    assert pipeline.form_base_clusters is original
    root, child = recorder.spans
    assert (root.name, child.name, child.parent) == ("root", "phase1", 0)
    assert self_time(root, [child]) == pytest.approx(root.duration - child.duration)


# -- metric names ------------------------------------------------------
def test_metric_names_match_pattern():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    measure.check_metric_names(names)
    assert len(names) == len(set(names))
    with pytest.raises(ValueError):
        measure.check_metric_names(["cluster s"])
    with pytest.raises(ValueError):
        measure.check_metric_names(["p90/s"])


# -- digest gate -------------------------------------------------------
def _small_document():
    from repro.core import NEAT, Location, Trajectory
    from repro.roadnet import line_network

    network = line_network(3)
    trajectories = [
        Trajectory(i, (Location(0, 10.0, 0.0, 0.0), Location(2, 250.0, 0.0, 60.0)))
        for i in range(4)
    ]
    result = NEAT(network).run(trajectories, mode="opt")
    return gates.checked_document(result, network)


def test_perturbed_document_fails_digest_gate():
    document = _small_document()
    expected = gates.document_digest(document)
    assert gates.document_digest(json.loads(json.dumps(document))) == expected

    perturbed = json.loads(json.dumps(document))
    perturbed["clusters"][0]["cluster_id"] += 1
    with pytest.raises(gates.GateFailed) as failure:
        gates.require_same("sharded_equals_serial", expected,
                           gates.document_digest(perturbed))
    assert failure.value.gate == "sharded_equals_serial"
    with pytest.raises(gates.GateFailed):
        gates.check_repetitions([expected, expected, gates.document_digest(perturbed)])
    assert gates.check_repetitions([expected, expected]) == expected


def test_serving_flags_are_ignored_when_comparing_documents():
    document = _small_document()
    served = dict(document, stale=True)
    assert gates.without_serving_flags(served) == gates.without_serving_flags(document)
