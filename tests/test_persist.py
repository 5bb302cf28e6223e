"""Unit tests for the durable store, batch journal and checkpoint manager."""

from __future__ import annotations

import json

import pytest

from repro.core import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.serialize import result_to_dict
from repro.errors import CorruptSnapshot, PersistenceError, TornWrite
from repro.obs.metrics import MetricsRegistry
from repro.persist import (
    BatchJournal,
    CheckpointManager,
    SnapshotStore,
    atomic_write,
    encode_batch_record,
    encode_frame,
    scan_frames,
    seal_snapshot,
    unseal_snapshot,
)
from repro.resilience import FaultInjector, FaultPlan, bit_flip

from conftest import trajectory_through


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write(target, b"two")
        assert target.read_bytes() == b"two"
        assert not (tmp_path / "f.bin.tmp").exists()

    def test_crash_before_rename_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write(target, b"old")
        faults = FaultInjector()
        faults.arm("store.pre_rename", FaultPlan(fail_nth=1))
        with pytest.raises(Exception):
            atomic_write(target, b"new", faults=faults)
        assert target.read_bytes() == b"old"


class TestFrames:
    def test_round_trip(self):
        payloads = [b"", b"a", b"hello world" * 100]
        data = b"".join(encode_frame(p) for p in payloads)
        scan = scan_frames(data)
        assert scan.payloads == payloads
        assert scan.good_bytes == len(data)
        assert not scan.torn

    def test_torn_tail_is_dropped_not_raised(self):
        data = encode_frame(b"keep") + encode_frame(b"torn")[:-3]
        scan = scan_frames(data)
        assert scan.payloads == [b"keep"]
        assert scan.torn

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptSnapshot):
            scan_frames(b"XXXX" + b"\x00" * 20)

    def test_crc_flip_raises(self):
        data = bytearray(encode_frame(b"payload-bytes"))
        data[-1] ^= 0x01
        with pytest.raises(CorruptSnapshot):
            scan_frames(bytes(data))


class TestEnvelope:
    def test_round_trip(self):
        payload = json.dumps({"k": list(range(50))}).encode()
        assert unseal_snapshot(seal_snapshot(payload), "t") == payload

    def test_truncation_is_torn_write(self):
        sealed = seal_snapshot(b"x" * 100)
        for cut in (3, 20, len(sealed) - 1):
            with pytest.raises(TornWrite):
                unseal_snapshot(sealed[:cut], "t")

    def test_payload_flip_is_corrupt(self):
        sealed = bytearray(seal_snapshot(b"x" * 100))
        sealed[-1] ^= 0x01
        with pytest.raises(CorruptSnapshot):
            unseal_snapshot(bytes(sealed), "t")

    def test_bad_magic_is_corrupt(self):
        with pytest.raises(CorruptSnapshot):
            unseal_snapshot(b"NOTSNAP!" + b"\x00" * 100, "t")


class TestSnapshotStore:
    def test_empty_store_reads_none(self, tmp_path):
        assert SnapshotStore(tmp_path).read_latest() is None

    def test_generations_and_pruning(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2, fsync=False)
        for index in range(4):
            store.write(f"payload-{index}".encode(), watermark=index)
        generations = store.generations()
        assert [g.number for g in generations] == [3, 4]
        assert store.oldest_watermark() == 2
        generation, payload = store.read_latest()
        assert generation.number == 4
        assert payload == b"payload-3"

    def test_falls_back_when_newest_corrupt(self, tmp_path):
        metrics = MetricsRegistry()
        store = SnapshotStore(tmp_path, keep=3, fsync=False, metrics=metrics)
        store.write(b"good", watermark=1)
        store.write(b"newer", watermark=2)
        newest = store.generations()[-1].path
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0x01
        newest.write_bytes(bytes(blob))
        generation, payload = store.read_latest()
        assert payload == b"good"
        assert generation.watermark == 1
        assert metrics.value("persist.checkpoints_rejected") == 1

    def test_all_corrupt_raises_not_none(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3, fsync=False)
        store.write(b"only", watermark=1)
        path = store.generations()[0].path
        path.write_bytes(path.read_bytes()[:10])  # torn
        with pytest.raises(CorruptSnapshot, match="failed"):
            store.read_latest()

    def test_read_routed_through_fault_point(self, tmp_path):
        faults = FaultInjector()
        store = SnapshotStore(tmp_path, fsync=False, faults=faults)
        store.write(b"payload", watermark=0)
        faults.arm(
            "snapshot.read", FaultPlan(corrupt_nth=1, corruptor=bit_flip)
        )
        with pytest.raises(CorruptSnapshot):
            store.read_latest()


class TestBatchJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.wal", fsync=False)
        records = [b"alpha", b"beta", b"gamma"]
        for record in records:
            journal.append(record)
        assert journal.replay().payloads == records

    def test_mid_append_crash_leaves_recoverable_torn_tail(self, tmp_path):
        faults = FaultInjector()
        journal = BatchJournal(tmp_path / "j.wal", fsync=False, faults=faults)
        journal.append(b"committed")
        faults.arm("journal.mid_append", FaultPlan(fail_nth=1))
        with pytest.raises(Exception):
            journal.append(b"torn-record")
        scan = journal.replay()
        assert scan.payloads == [b"committed"]
        assert scan.torn
        removed = journal.repair()
        assert removed > 0
        journal.append(b"after-repair")
        clean = journal.replay()
        assert clean.payloads == [b"committed", b"after-repair"]
        assert not clean.torn

    def test_rewrite_compacts_atomically(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.wal", fsync=False)
        for record in (b"a", b"b", b"c"):
            journal.append(record)
        journal.rewrite([b"c"])
        assert journal.replay().payloads == [b"c"]


class TestBitFlip:
    def test_flips_exactly_one_bit(self):
        assert bit_flip(b"\x00") == b"\x01"
        assert bit_flip(b"") == b""
        data = bytes(range(64))
        flipped = bit_flip(data, index=999)  # wraps, never raises
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(data, flipped)) == 1


def _batches(network, count, per_batch=3):
    out = []
    trid = 0
    for index in range(count):
        batch = []
        for _ in range(per_batch):
            route = [trid % 2, (trid % 2) + 1]
            batch.append(
                trajectory_through(network, trid, route, t0=float(index))
            )
            trid += 1
        out.append(batch)
    return out


class TestCheckpointManager:
    def test_load_empty_state_dir(self, tmp_path):
        recovered = CheckpointManager(tmp_path, fsync=False).load()
        assert recovered.generation is None
        assert recovered.watermark == 0
        assert recovered.batches == []

    def test_compaction_keeps_oldest_generation_replayable(
        self, tmp_path, grid3x3
    ):
        config = NEATConfig(min_card=0)
        clusterer = IncrementalNEAT(grid3x3, config)
        clusterer.enable_persistence(tmp_path, checkpoint_every=1, keep=2, fsync=False)
        manager = clusterer._persist
        for batch in _batches(grid3x3, 4):
            clusterer.add_batch(batch, auto_offset_ids=True)
        # keep=2 retains generations with watermarks 3 and 4; the journal
        # must still hold batch seq 3 so the older generation can replay
        # to the newest durable state.
        floor = manager.snapshots.oldest_watermark()
        assert floor == 3
        kept_seqs = [
            json.loads(p.decode())["seq"]
            for p in manager.journal.replay().payloads
        ]
        assert kept_seqs == [3]

    def test_sequence_gap_raises(self, tmp_path, line3):
        manager = CheckpointManager(tmp_path, fsync=False)
        batch = _batches(line3, 1)[0]
        manager.record_batch(0, batch)
        manager.record_batch(2, batch)  # 1 is missing
        with pytest.raises(CorruptSnapshot, match="sequence gap"):
            manager.load()

    def test_undecodable_record_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manager.journal.append(b"not json at all")
        with pytest.raises(CorruptSnapshot, match="undecodable batch record"):
            manager.load()

    def test_checkpoint_without_state_dir_raises(self, line3):
        clusterer = IncrementalNEAT(line3, NEATConfig(min_card=0))
        with pytest.raises(PersistenceError, match="no state directory"):
            clusterer.checkpoint()

    def test_batch_record_codec_round_trip(self, line3):
        batch = _batches(line3, 1)[0]
        from repro.persist import decode_batch_record

        seq, decoded = decode_batch_record(
            encode_batch_record(7, batch), "t"
        )
        assert seq == 7
        assert decoded == batch


class TestDurabilityNeverChangesAnswers:
    def test_persistence_modes_serve_identical_documents(
        self, tmp_path, small_workload
    ):
        # No persistence, journal only, and a checkpoint after every
        # batch must serve byte-identical clusterings.
        network, dataset = small_workload
        trajectories = list(dataset)
        batches = [trajectories[i:i + 15] for i in range(0, len(trajectories), 15)]
        documents = {}
        for mode, checkpoint_every in (("off", None), ("journal", 0), ("every", 1)):
            clusterer = IncrementalNEAT(network, NEATConfig(min_card=0))
            if checkpoint_every is not None:
                clusterer.enable_persistence(
                    tmp_path / mode, checkpoint_every=checkpoint_every, fsync=False
                )
            for batch in batches:
                clusterer.add_batch(batch, auto_offset_ids=True)
            if mode == "every":
                generations = clusterer._persist.snapshots.generations()
                assert [g.watermark for g in generations][-1] == len(batches)
            documents[mode] = json.dumps(
                result_to_dict(clusterer.snapshot_result()), sort_keys=True
            )
        assert json.loads(documents["off"])["clusters"]
        assert documents["journal"] == documents["off"]
        assert documents["every"] == documents["off"]


class TestStatePayloadEncoder:
    def test_cached_encoding_parses_to_identical_document(
        self, tmp_path, grid3x3
    ):
        from repro.persist import encode_state_payload

        clusterer = IncrementalNEAT(grid3x3, NEATConfig(min_card=0))
        clusterer.enable_persistence(tmp_path, fsync=False)
        cache = {}
        for batch in _batches(grid3x3, 3):
            clusterer.add_batch(batch, auto_offset_ids=True)
            document = clusterer._state_document()
            plain = json.loads(encode_state_payload(document).decode())
            cached = json.loads(
                encode_state_payload(document, cache).decode()
            )
            # Warm-cache re-encode must also agree (the memoized path).
            rewarmed = json.loads(
                encode_state_payload(document, cache).decode()
            )
            # Compare through a parse round-trip: cached documents hold
            # tuples where plain ones hold lists (identical JSON).
            canonical = json.loads(json.dumps(document, sort_keys=True))
            assert cached == plain == rewarmed == canonical
        assert cache  # the memo actually filled
