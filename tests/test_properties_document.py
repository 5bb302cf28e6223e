"""The service's served document equals a fresh build.

:class:`~repro.distributed.service.NeatService` builds each state
version's document from memos kept across batches: the density-sorted
members of :meth:`IncrementalNEAT.snapshot_result` and the clusterer's
base-cluster entries (shared with its checkpoints).  On small random
networks and streams, with rolled-back batches (an unknown segment, an
injected journal fault) and a restart mid-stream, after every batch:

* the served document is marshal-identical to ``result_to_dict`` of a
  freshly sorted snapshot with no cache;
* a ``mutable=True`` document is a private copy: editing its nested
  rows leaks neither into later served documents nor into the state a
  restart recovers, while a default document shares them (the
  documented read-only contract);
* every committed base cluster keeps the same fragment objects in the
  same order, and a restart recovers them equal and in order: the
  whole-cluster memo behind ``result_to_dict``'s ``fragment_cache``
  trusts that a committed base cluster is never mutated in place.
"""

from __future__ import annotations

import marshal
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Trajectory
from repro.core.result import NEATResult
from repro.core.serialize import result_to_dict
from repro.distributed.service import NeatService
from repro.errors import TrajectoryError
from repro.resilience import FaultPlan

from test_properties_incremental import streams

SERVED_KEYS = ("flows", "clusters", "base_clusters")


def _fresh_snapshot(incremental) -> NEATResult:
    """The served view, sorted from scratch (no memo)."""
    result = NEATResult(mode="opt")
    members = [member for flow in incremental.flows for member in flow.members]
    result.base_clusters = sorted(
        members, key=lambda cluster: (-cluster.density, cluster.sid)
    )
    result.flows = incremental.flows
    result.clusters = incremental.clusters
    cards = [flow.trajectory_cardinality for flow in result.flows]
    result.min_card_used = min(cards) if cards else 0
    return result


def _assert_served_is_fresh(service) -> None:
    served = service.get_clustering()
    reference = result_to_dict(
        _fresh_snapshot(service._incremental),
        network_name=service.network.name,
    )
    assert marshal.dumps(served, 2) == marshal.dumps(reference, 2)


def _clear(value) -> None:
    """Empty every list and dict nested in ``value``, innermost first."""
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (dict, list)):
            _clear(child)
    value.clear()


def _vandalize_mutable_copy(service) -> None:
    """Edit every nested row of a ``mutable=True`` document."""
    shared = service.get_clustering()
    private = service.get_clustering(mutable=True)
    assert marshal.dumps(private, 2) == marshal.dumps(shared, 2)
    for key in SERVED_KEYS:
        _clear(private[key])
    if shared["base_clusters"]:
        # The default document shares the state version's nested values.
        assert (
            service.get_clustering()["base_clusters"][0]
            is shared["base_clusters"][0]
        )


def _committed(service) -> list:
    """Each committed base cluster with its fragment objects, as a pin."""
    incremental = service._incremental
    flows = incremental.flows + incremental.noise_flows
    return [
        (cluster, list(cluster.fragments))
        for flow in flows
        for cluster in flow.members
    ]


def _assert_unchanged(pinned) -> None:
    for cluster, fragments in pinned:
        assert len(cluster.fragments) == len(fragments)
        assert all(a is b for a, b in zip(cluster.fragments, fragments))


@settings(max_examples=25, deadline=None)
@given(streams(), st.data())
def test_served_document_equals_a_fresh_build(stream, data):
    network, config, batches = stream
    restart_at = data.draw(st.integers(min_value=0, max_value=len(batches)))
    checkpoint_first = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as state_dir:
        service = NeatService(network, config, state_dir=state_dir)
        pinned = []
        for index, batch in enumerate(batches):
            if index == restart_at:
                if checkpoint_first:
                    service.checkpoint()
                before = service.get_clustering()
                del service
                service = NeatService(network, config, state_dir=state_dir)
                _assert_served_is_fresh(service)
                after = service.get_clustering()
                for key in SERVED_KEYS:
                    assert after[key] == before[key]
                recovered = _committed(service)
                assert [f for _, f in recovered] == [f for _, f in pinned]
                pinned = recovered

            if batch and data.draw(st.booleans()):
                # Refused at admission by the clusterer: rolled back.
                bad = batch[0]
                unknown = bad.locations[0]._replace(sid=10**9)
                with pytest.raises(TrajectoryError):
                    service._incremental.add_batch(
                        [Trajectory(bad.trid, (unknown, *bad.locations[1:]))],
                        auto_offset_ids=True,
                    )
                _assert_served_is_fresh(service)
                _assert_unchanged(pinned)
            if data.draw(st.booleans()):
                # The first attempt's journal append fails and rolls the
                # batch back; the service's retry then commits it.
                service.faults.arm("journal.mid_append", FaultPlan(fail_nth=1))
            service.submit(batch)
            service.faults.disarm("journal.mid_append")

            _assert_served_is_fresh(service)
            _vandalize_mutable_copy(service)
            _assert_served_is_fresh(service)
            _assert_unchanged(pinned)
            pinned = _committed(service)
