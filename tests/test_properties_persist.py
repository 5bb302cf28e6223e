"""Property-based fuzz tests (hypothesis) for the persistence layer.

Three durability invariants, fuzzed rather than example-tested:

* the framed codec is prefix-stable — truncating a frame stream at ANY
  byte offset yields exactly the payloads whose frames survived intact,
  with the torn flag set iff bytes were dropped mid-frame;
* flipping any single bit of a sealed snapshot envelope is always
  detected (typed error, never a silently different payload);
* journal replay after random truncation recovers exactly the state a
  never-crashed run reaches over the surviving record prefix;
* a state snapshot with one field perturbed and a valid checksum either
  fails recovery with a typed error or recovers the original state — the
  decoder never silently ignores, normalizes or drops a field, and never
  accepts a state that no run could have written.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid3x3_network, trajectory_through
from repro.core import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.serialize import result_to_dict
from repro.errors import CorruptSnapshot, PersistenceError
from repro.persist import (
    SnapshotStore,
    encode_frame,
    encode_state_payload,
    scan_frames,
    seal_snapshot,
    unseal_snapshot,
)
from repro.roadnet.builder import network_from_edges

payloads_strategy = st.lists(
    st.binary(min_size=0, max_size=64), min_size=0, max_size=8
)


def _line3():
    coordinates = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    edges = [(0, 1), (1, 2), (2, 3)]
    return network_from_edges(coordinates, edges, name="line3")


class TestFramedCodecProperties:
    @given(payloads_strategy)
    def test_round_trip_is_lossless(self, payloads):
        data = b"".join(encode_frame(p) for p in payloads)
        scan = scan_frames(data)
        assert scan.payloads == payloads
        assert scan.good_bytes == len(data)
        assert not scan.torn

    @given(payloads_strategy, st.data())
    def test_any_truncation_yields_exact_prefix(self, payloads, data):
        stream = b"".join(encode_frame(p) for p in payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        scan = scan_frames(stream[:cut])
        # The scan recovers exactly the payloads whose frames fit in the
        # cut — never a partial payload, never one out of order.
        assert scan.payloads == payloads[: len(scan.payloads)]
        assert scan.good_bytes <= cut
        assert scan.torn == (cut != scan.good_bytes)
        survived = sum(
            len(encode_frame(p)) for p in payloads[: len(scan.payloads)]
        )
        assert scan.good_bytes == survived

    @given(st.binary(min_size=0, max_size=512), st.data())
    def test_envelope_single_bit_flip_always_detected(self, payload, data):
        sealed = bytearray(seal_snapshot(payload))
        position = data.draw(
            st.integers(min_value=0, max_value=len(sealed) * 8 - 1)
        )
        sealed[position // 8] ^= 1 << (position % 8)
        with pytest.raises(PersistenceError):
            unseal_snapshot(bytes(sealed), "fuzz")


class TestJournalReplayProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=4,
        ),
        st.data(),
    )
    def test_truncated_journal_recovers_prefix_state(self, routes, data):
        """Random batches + random truncation ⇒ recovery == prefix run."""
        network = _line3()
        config = NEATConfig(min_card=0)
        batches = []
        trid = 0
        for batch_index, starts in enumerate(routes):
            batch = []
            for start in starts:
                route = [start, start + 1] if start < 2 else [start]
                batch.append(
                    trajectory_through(
                        network, trid, route, t0=float(batch_index)
                    )
                )
                trid += 1
            batches.append(batch)

        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp)
            clusterer = IncrementalNEAT(network, config)
            clusterer.enable_persistence(state_dir, fsync=False)
            for batch in batches:
                clusterer.add_batch(batch)

            wal = state_dir / "journal.wal"
            blob = wal.read_bytes()
            cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
            wal.write_bytes(blob[:cut])

            recovered = IncrementalNEAT.recover(state_dir, network, config)
            survived = recovered.batch_count
            assert survived <= len(batches)

            reference = IncrementalNEAT(network, config)
            for batch in batches[:survived]:
                reference.add_batch(batch)

            assert json.dumps(
                result_to_dict(recovered.snapshot_result(), "fuzz"),
                sort_keys=True,
            ) == json.dumps(
                result_to_dict(reference.snapshot_result(), "fuzz"),
                sort_keys=True,
            )


#: Batches of routes (segment ids) on the 3x3 grid: the state they build
#: holds flows, noise flows and a two-flow cluster.
_STATE_BATCHES = (
    ((0, 2, 4), (0, 2, 4), (0, 2), (5,)),
    ((10, 11), (10, 11), (5,)),
    ((1, 6), (5, 7), (0, 2, 4), (0, 2, 4)),
)
_STATE_CONFIG = NEATConfig(min_card=2, eps=150.0)


@pytest.fixture(scope="module")
def state_template(tmp_path_factory):
    """A state dir checkpointed after every batch, and its network."""
    network = grid3x3_network()
    state_dir = tmp_path_factory.mktemp("state")
    clusterer = IncrementalNEAT(network, _STATE_CONFIG)
    clusterer.enable_persistence(state_dir, checkpoint_every=1, fsync=False)
    trid = 0
    for index, routes in enumerate(_STATE_BATCHES):
        batch = []
        for route in routes:
            batch.append(
                trajectory_through(network, trid, list(route), t0=float(index))
            )
            trid += 1
        clusterer.add_batch(batch)
    result = clusterer._state_document()["result"]
    assert result["noise_flows"]
    assert any(len(cluster["flow_indices"]) == 2 for cluster in result["clusters"])
    return network, state_dir


def _draw_field(data, document):
    """(container, key) of one field, by a random walk from the root.

    Each level is as likely as the next, so the few top-level fields are
    not drowned out by the many location rows."""
    container = document
    while True:
        keys = list(container) if isinstance(container, dict) else range(len(container))
        key = data.draw(st.sampled_from(keys))
        child = container[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            return container, key
        container = child


_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=20),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=20), max_size=3),
    st.just({}),
)


def _reseal(state_dir: Path, edit) -> dict:
    """Apply ``edit`` to the newest snapshot's document, reseal it, and
    return the document as it was before the edit."""
    generation, payload = SnapshotStore(state_dir / "snapshots").read_latest()
    document = json.loads(payload)
    edit(document)
    generation.path.write_bytes(seal_snapshot(json.dumps(document).encode("utf-8")))
    return json.loads(payload)


def _recovered_document(network, state_dir: Path) -> dict:
    recovered = IncrementalNEAT.recover(state_dir, network, _STATE_CONFIG, fsync=False)
    return json.loads(encode_state_payload(recovered._state_document()))


class TestSnapshotDecoderProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_perturbed_state_is_refused_or_reencodes_exactly(
        self, state_template, data
    ):
        network, template = state_template

        def perturb(document):
            container, key = _draw_field(data, document)
            action = data.draw(st.sampled_from(["replace", "delete", "repeat"]))
            if action == "replace":
                container[key] = data.draw(_json_values)
            elif action == "delete":
                del container[key]
            elif isinstance(container, list):
                container.insert(key, container[key])
            else:
                container[key] = [container[key]] * 2

        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "state"
            shutil.copytree(template, state_dir)
            original = _reseal(state_dir, perturb)
            try:
                again = _recovered_document(network, state_dir)
            except PersistenceError:
                return
            assert again == original


class TestSnapshotDecoderRegressions:
    def test_interleaved_state_reencodes_exactly(self, state_template, tmp_path):
        # Checkpoints after every batch list each batch's noise-flow base
        # clusters before the next batch's flows; recovery keeps that order.
        network, template = state_template
        shutil.copytree(template, tmp_path / "state")
        document = _reseal(tmp_path / "state", lambda document: None)
        assert _recovered_document(network, tmp_path / "state") == document

    @pytest.mark.parametrize("edit", [
        lambda document: document.pop("network_name"),
        lambda document: document["result"].update(stale=True),
        lambda document: document["result"]["flows"][0]["member_sids"].reverse(),
    ], ids=["no-network-name", "stale", "member-sids"])
    def test_ignored_field_is_corruption(self, state_template, tmp_path, edit):
        network, template = state_template
        shutil.copytree(template, tmp_path / "state")
        _reseal(tmp_path / "state", edit)
        with pytest.raises(CorruptSnapshot, match="re-encode"):
            _recovered_document(network, tmp_path / "state")

    @pytest.mark.parametrize("edit, message", [
        (lambda result: _fragment(result)["locations"].pop(),
         "fewer than 2 locations"),
        (lambda result: [row.__setitem__(0, 3) for row in _fragment(result)["locations"]],
         "fragment on segment 3"),
        (lambda result: _fragment(result).update(trid=99),
         "unseen trajectory"),
        (lambda result: result["noise_flows"].append(result["noise_flows"][0]),
         "do not partition the base clusters"),
    ], ids=["one-location", "sid-mismatch", "unseen-trid", "no-partition"])
    def test_location_level_corruption(self, state_template, tmp_path, edit, message):
        network, template = state_template
        shutil.copytree(template, tmp_path / "state")
        _reseal(tmp_path / "state", lambda document: edit(document["result"]))
        with pytest.raises(CorruptSnapshot, match=message):
            _recovered_document(network, tmp_path / "state")


def _fragment(result: dict) -> dict:
    """The first fragment of the state's first base cluster."""
    return result["base_clusters"][0]["fragments"][0]
