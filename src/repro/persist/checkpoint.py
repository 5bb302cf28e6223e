"""Checkpoint orchestration: snapshot generations + journal, as one unit.

A :class:`CheckpointManager` owns the two halves of a state directory::

    <state_dir>/
      snapshots/gen-00000007-w00000042.snap   sealed state snapshots
      journal.wal                             committed-batch WAL

and enforces the protocol between them:

* a **batch record** is appended (and fsynced) only after the batch was
  applied in memory — the journal is a redo log of *committed* batches,
  so replay can never introduce a batch the live process rolled back;
* a **checkpoint** writes a new snapshot generation whose filename
  carries the *watermark* (how many batches it contains), then compacts
  the journal down to the records still needed by the **oldest retained
  generation** — which is what keeps the corrupt-newest fallback exact:
  an older generation plus the surviving journal suffix reconstructs
  precisely the newest durable state;
* :meth:`load` returns the newest verified snapshot, the decoded journal
  records past its watermark (sequence-checked: a gap is corruption,
  not data), and repairs any torn tail so future appends are clean.

Payload codecs for trajectory batches and the incremental-state envelope
live here too, so the store/journal layers stay byte-oriented.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..core.model import Location, Trajectory
from ..errors import CorruptSnapshot
from ..obs import get_logger
from .journal import BatchJournal
from .store import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..resilience import FaultInjector

_log = get_logger("persist.checkpoint")

STATE_FORMAT = "repro-incremental-state"
#: Version 2 leaves out the Phase 3 clusters, which recovery derives from
#: the flows; a version 1 state is refused.
STATE_VERSION = 2
BATCH_FORMAT = "repro-journal-batch"
BATCH_VERSION = 1


# ----------------------------------------------------------------------
# Batch record codec
# ----------------------------------------------------------------------
def _trajectory_to_lists(trajectory: Trajectory) -> dict[str, Any]:
    return {
        "trid": trajectory.trid,
        "locations": [
            [l.sid, l.x, l.y, l.t, l.node_id] for l in trajectory.locations
        ],
    }


def _trajectory_from_lists(data: dict[str, Any]) -> Trajectory:
    locations = tuple(
        Location(int(sid), float(x), float(y), float(t),
                 None if node_id is None else int(node_id))
        for sid, x, y, t, node_id in data["locations"]
    )
    return Trajectory(int(data["trid"]), locations)


def encode_batch_record(seq: int, trajectories: Sequence[Trajectory]) -> bytes:
    """One committed batch as a canonical JSON payload."""
    document = {
        "format": BATCH_FORMAT,
        "version": BATCH_VERSION,
        "seq": seq,
        "trajectories": [_trajectory_to_lists(tr) for tr in trajectories],
    }
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_batch_record(
    payload: bytes, source: str | Path
) -> tuple[int, list[Trajectory]]:
    """The inverse of :func:`encode_batch_record`.

    Raises:
        CorruptSnapshot: The payload passed its frame checksum but does
            not decode to a well-formed batch record (never returns a
            partially-built batch).
    """
    try:
        document = json.loads(payload.decode("utf-8"))
        if document.get("format") != BATCH_FORMAT:
            raise ValueError(f"not a batch record: {document.get('format')!r}")
        if document.get("version") != BATCH_VERSION:
            raise ValueError(f"unsupported version: {document.get('version')!r}")
        seq = int(document["seq"])
        trajectories = [
            _trajectory_from_lists(entry) for entry in document["trajectories"]
        ]
    except CorruptSnapshot:
        raise
    except Exception as error:
        raise CorruptSnapshot(source, f"undecodable batch record: {error}") from error
    return seq, trajectories


_SEQ_PEEK = re.compile(rb'"seq":\s*(\d+)')


def peek_seq(payload: bytes, source: str | Path) -> int:
    """The record's sequence number without decoding its trajectories.

    ``sort_keys`` places ``"seq"`` right after the format tag, so the
    scan never has to look past the first hundred bytes; anything the
    pattern misses falls back to the full (typed) decode.
    """
    match = _SEQ_PEEK.search(payload[:128])
    if match is not None:
        return int(match.group(1))
    seq, _ = decode_batch_record(payload, source)
    return seq


# ----------------------------------------------------------------------
# Incremental-state envelope
# ----------------------------------------------------------------------
def _dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_state_payload(
    document: dict[str, Any],
    text_cache: dict[int, tuple[Any, ...]] | None = None,
) -> bytes:
    """Serialize a state envelope to JSON bytes, memoizing fragment text.

    The hot cost of a per-batch checkpoint is re-encoding the base
    clusters, which never change once built (``result_to_dict``'s
    ``fragment_cache`` returns the *same* entry dicts each call).  With
    a ``text_cache`` (keyed by entry identity, each record pinning its
    entry so ids are never recycled), only clusters new since the last
    checkpoint are rendered; the rest is string assembly.  The output
    is plain JSON that parses back to the identical document either
    way.
    """
    if text_cache is None:
        return _dumps_canonical(document).encode("utf-8")

    def clusters_bytes(entries: list[dict[str, Any]]) -> bytes:
        # Prefix memo: base clusters only ever *append* between
        # checkpoints (``result_to_dict``'s fragment cache returns the
        # *same* entry dicts for unchanged clusters), so the previously
        # rendered bytes are reused verbatim when the new list starts
        # with the same entries — checked by identity — and only the new
        # suffix is rendered, in a single C-speed ``json.dumps`` call.
        # Caching *bytes* (not str) means unchanged clusters are never
        # UTF-8 re-encoded either.
        ids = [id(e) for e in entries]
        hit = text_cache.get("__clusters__")
        if hit is not None and hit[1] <= len(ids) and hit[2] == ids[: hit[1]]:
            joined = hit[3]
            if len(ids) > hit[1]:
                suffix = _dumps_canonical(entries[hit[1]:])[1:-1].encode("utf-8")
                joined = joined + b"," + suffix if joined else suffix
        else:
            joined = _dumps_canonical(entries)[1:-1].encode("utf-8")
        # Entries are pinned so the recorded ids stay unambiguous.
        text_cache["__clusters__"] = (list(entries), len(ids), ids, joined)
        return b"[%s]" % joined

    parts = []
    for key in sorted(document):
        if key == "result":
            result = document["result"]
            inner = []
            for rkey in sorted(result):
                if rkey == "base_clusters":
                    value = clusters_bytes(result["base_clusters"])
                else:
                    value = _dumps_canonical(result[rkey]).encode("utf-8")
                inner.append(b'"%s":%s' % (rkey.encode("utf-8"), value))
            value = b"{%s}" % b",".join(inner)
        else:
            value = _dumps_canonical(document[key]).encode("utf-8")
        parts.append(b'"%s":%s' % (key.encode("utf-8"), value))
    return b"{%s}" % b",".join(parts)


def seal_state_document(
    watermark: int,
    seen_trids: Sequence[int],
    network_name: str,
    result_document: dict[str, Any],
) -> dict[str, Any]:
    """The versioned envelope around a serialized incremental state."""
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "watermark": int(watermark),
        "seen_trids": sorted(int(trid) for trid in seen_trids),
        "network_name": network_name,
        "result": result_document,
    }


def open_state_document(
    document: dict[str, Any], source: str | Path
) -> tuple[int, list[int], str, dict[str, Any]]:
    """Validate and unpack a state envelope.

    Raises:
        CorruptSnapshot: Wrong format tag/version or missing fields.
    """
    try:
        if document.get("format") != STATE_FORMAT:
            raise ValueError(
                f"not an incremental state: {document.get('format')!r}"
            )
        if document.get("version") != STATE_VERSION:
            raise ValueError(f"unsupported version: {document.get('version')!r}")
        watermark = int(document["watermark"])
        seen_trids = [int(trid) for trid in document["seen_trids"]]
        network_name = str(document.get("network_name", ""))
        result_document = document["result"]
    except CorruptSnapshot:
        raise
    except Exception as error:
        raise CorruptSnapshot(source, f"undecodable state envelope: {error}") from error
    return watermark, seen_trids, network_name, result_document


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
@dataclass
class RecoveredState:
    """What :meth:`CheckpointManager.load` found on disk.

    Attributes:
        generation: The verified snapshot generation used (None: no
            snapshot — recovery starts from an empty state).
        watermark: Batches already contained in that snapshot (0 without
            one).
        state: The decoded state envelope (None without a snapshot).
        batches: ``(seq, trajectories)`` journal records past the
            watermark, contiguous and in order.
        torn_tail: Whether a half-written journal record was dropped.
    """

    generation: int | None = None
    watermark: int = 0
    state: dict[str, Any] | None = None
    batches: list[tuple[int, list[Trajectory]]] = field(default_factory=list)
    torn_tail: bool = False


class CheckpointManager:
    """Snapshot store + batch journal under one state directory."""

    def __init__(
        self,
        state_dir: str | Path,
        keep: int = 3,
        fsync: bool = True,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.snapshots = SnapshotStore(
            self.state_dir / "snapshots",
            keep=keep, fsync=fsync, faults=faults, metrics=metrics,
        )
        self.journal = BatchJournal(
            self.state_dir / "journal.wal",
            fsync=fsync, faults=faults, metrics=metrics,
        )
        self.metrics = metrics
        # A torn tail left by a crashed append would corrupt the next
        # append (frames must start on a boundary) — repair eagerly.
        self.journal.repair()

    # ------------------------------------------------------------------
    def record_batch(self, seq: int, trajectories: Sequence[Trajectory]) -> None:
        """Durably journal one committed batch.

        If the append dies half-way the batch is rolled back by the
        caller, so the torn record must not stay in front of future
        appends: a surviving process truncates it immediately (a killed
        process leaves it for :meth:`BatchJournal.repair` on next load).
        """
        try:
            self.journal.append(encode_batch_record(seq, trajectories))
        except BaseException:
            try:
                self.journal.repair()
            except OSError:  # pragma: no cover - best effort
                pass
            raise

    def write_checkpoint(
        self,
        state_document: dict[str, Any],
        text_cache: dict[int, tuple[Any, ...]] | None = None,
    ) -> int:
        """Write a snapshot generation, then compact the journal.

        The envelope's ``watermark`` rides in the generation's filename.
        A crash between the two steps is safe: the new generation plus
        the not-yet-compacted journal still replays to the same state
        (records below the watermark are skipped on load).
        """
        watermark = int(state_document.get("watermark", 0))
        payload = encode_state_payload(state_document, text_cache)
        generation = self.snapshots.write(payload, watermark=watermark)
        self._compact_journal()
        return generation

    def _compact_journal(self) -> None:
        """Drop journal records every retained generation already contains."""
        floor = self.snapshots.oldest_watermark()
        if floor is None or not self.journal.path.exists():
            return
        scan = self.journal.replay()
        kept: list[bytes] = []
        for payload in scan.payloads:
            if peek_seq(payload, self.journal.path) >= floor:
                kept.append(payload)
        if len(kept) != len(scan.payloads) or scan.torn:
            self.journal.rewrite(kept)

    # ------------------------------------------------------------------
    def load(self) -> RecoveredState:
        """Newest verified snapshot + the journal records past its watermark.

        Raises:
            CorruptSnapshot: Every snapshot generation failed
                verification, a journal record is undecodable, or the
                journal has a sequence gap (missing committed batches).
        """
        recovered = RecoveredState()
        latest = self.snapshots.read_latest()
        if latest is not None:
            generation, payload = latest
            try:
                document = json.loads(payload.decode("utf-8"))
            except ValueError as error:
                raise CorruptSnapshot(
                    generation.path, f"sealed payload is not JSON: {error}"
                ) from error
            watermark, _, _, _ = open_state_document(document, generation.path)
            recovered.generation = generation.number
            recovered.watermark = watermark
            recovered.state = document
            if watermark != generation.watermark:
                raise CorruptSnapshot(
                    generation.path,
                    f"filename watermark {generation.watermark} disagrees "
                    f"with envelope watermark {watermark}",
                )

        scan = self.journal.replay()
        recovered.torn_tail = scan.torn
        expected = recovered.watermark
        for payload in scan.payloads:
            seq, trajectories = decode_batch_record(payload, self.journal.path)
            if seq < recovered.watermark:
                continue  # already inside the snapshot
            if seq != expected:
                raise CorruptSnapshot(
                    self.journal.path,
                    f"journal sequence gap: expected batch {expected}, "
                    f"found {seq}",
                )
            expected += 1
            recovered.batches.append((seq, trajectories))
        if scan.torn:
            self.journal.repair()
        _log.info(
            "state loaded",
            generation=recovered.generation,
            watermark=recovered.watermark,
            journal_batches=len(recovered.batches),
            torn_tail=recovered.torn_tail,
        )
        return recovered
