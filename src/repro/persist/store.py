"""The durable store: atomic writes, checksummed frames, snapshot generations.

Three building blocks, each independently testable:

* :func:`atomic_write` — the temp-file + ``fsync`` + ``rename`` idiom.
  A reader never observes a half-written file: either the old bytes or
  the new bytes, nothing in between (POSIX ``rename`` is atomic).
* **Framed records** — :func:`encode_frame` / :func:`scan_frames` wrap a
  payload in a ``magic | length | crc32`` header.  A scan distinguishes
  the two on-disk failure modes: a *torn tail* (the file ends mid-frame
  — the normal residue of a crash mid-append, silently dropped and
  reported) and *corruption* (a complete frame whose checksum fails —
  raised as :class:`~repro.errors.CorruptSnapshot`, never returned).
* :class:`SnapshotStore` — generation-numbered, SHA-256-sealed snapshot
  files written atomically.  ``read_latest`` walks generations newest
  first and falls back to the last verified-good one when the newest is
  corrupt or torn, counting what it rejected.

Everything is stdlib-only and synchronous; callers inject a
:class:`~repro.resilience.FaultInjector` to script crash points
(``snapshot.pre_rename``, ``snapshot.read``) deterministically.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .. import framing
from ..errors import CorruptSnapshot, TornWrite
from ..obs import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..resilience import FaultInjector

_log = get_logger("persist.store")

#: Journal frame magic (the header layout is :mod:`repro.framing`'s).
FRAME_MAGIC = b"RPF1"

#: Snapshot envelope: magic line, hex length line, sha256 line, payload.
SNAPSHOT_MAGIC = b"RPSNAP1\n"
_SNAPSHOT_NAME = re.compile(r"^gen-(\d{8})-w(\d{8})\.snap$")
_HEX_FIELD = re.compile(rb"[0-9a-f]{16}")

#: Byte-size histogram buckets for checkpoint payloads (1 KiB – 64 MiB).
SIZE_BUCKETS = tuple(float(1024 * 4**i) for i in range(9))


def _noop() -> None:
    return None


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def atomic_write(
    path: str | Path,
    data: bytes,
    fsync: bool = True,
    faults: "FaultInjector | None" = None,
    fault_point: str = "store.pre_rename",
) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a partial file.

    The bytes go to ``<name>.tmp`` in the same directory, are flushed and
    fsynced, and only then renamed over the target (``os.replace``); the
    directory entry is fsynced afterwards so the rename itself is
    durable.  An armed ``fault_point`` plan fires *between* the temp
    write and the rename — exactly where a kill -9 leaves the old file
    intact and the new bytes invisible.
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if faults is not None:
        faults.run(fault_point, _noop)
    os.replace(temp, target)
    if fsync:
        _fsync_directory(target.parent)


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Framed records (the journal's wire format)
# ----------------------------------------------------------------------
def encode_frame(payload: bytes) -> bytes:
    """``payload`` wrapped in the ``magic | length | crc32`` header."""
    return framing.encode(FRAME_MAGIC, payload)


@dataclass
class FrameScan:
    """Outcome of :func:`scan_frames` over one byte string.

    Attributes:
        payloads: The complete, checksum-verified payloads in order.
        good_bytes: Offset of the first byte past the last good frame —
            truncating the file here repairs a torn tail.
        torn: Whether trailing bytes formed an incomplete frame.
    """

    payloads: list[bytes] = field(default_factory=list)
    good_bytes: int = 0
    torn: bool = False


def scan_frames(data: bytes, source: str | Path = "<memory>") -> FrameScan:
    """Decode consecutive frames, tolerating a torn tail.

    A file that ends mid-frame (header or payload cut short) is the
    normal residue of a crash during an append: the scan stops at the
    last complete frame and flags ``torn``.  A *complete* frame whose
    magic or CRC32 is wrong is corruption, not truncation — that raises
    :class:`~repro.errors.CorruptSnapshot` so a bit flip can never
    silently drop the records behind it.
    """
    scan = FrameScan()
    offset = 0
    total = len(data)
    header = framing.HEADER.size
    while offset < total:
        if total - offset < header:
            scan.torn = True
            break
        try:
            length, crc = framing.check_header(data, offset, FRAME_MAGIC)
            start = offset + header
            if total - start < length:
                scan.torn = True
                break
            payload = data[start:start + length]
            framing.check_crc(payload, crc)
        except framing.BadFrame as error:
            raise CorruptSnapshot(
                source, f"frame {error} at offset {offset}"
            ) from None
        scan.payloads.append(payload)
        offset = start + length
        scan.good_bytes = offset
    return scan


# ----------------------------------------------------------------------
# Checksummed snapshot envelope
# ----------------------------------------------------------------------
def seal_snapshot(payload: bytes) -> bytes:
    """``payload`` under the SHA-256 snapshot envelope.

    Layout: ``RPSNAP1\\n`` | 16 hex digits of payload length | ``\\n`` |
    64 hex digits of SHA-256 | ``\\n`` | payload.  The explicit length
    lets a reader tell a short file (torn write) from a full-length file
    whose digest disagrees (corruption).
    """
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return (
        SNAPSHOT_MAGIC
        + f"{len(payload):016x}\n".encode("ascii")
        + digest
        + b"\n"
        + payload
    )


_ENVELOPE_HEADER = len(SNAPSHOT_MAGIC) + 17 + 65


def unseal_snapshot(data: bytes, source: str | Path) -> bytes:
    """Verify and strip the snapshot envelope; the inverse of ``seal``.

    Raises:
        TornWrite: The file ends before the declared payload length.
        CorruptSnapshot: Bad magic, unparseable header, or SHA mismatch.
    """
    if not data.startswith(SNAPSHOT_MAGIC):
        if SNAPSHOT_MAGIC.startswith(data):
            raise TornWrite(source, "file ends inside the snapshot magic")
        raise CorruptSnapshot(source, "not a sealed snapshot (bad magic)")
    if len(data) < _ENVELOPE_HEADER:
        raise TornWrite(source, "file ends inside the snapshot header")
    cursor = len(SNAPSHOT_MAGIC)
    length_line = data[cursor:cursor + 17]
    digest_line = data[cursor + 17:cursor + 17 + 65]
    hex_length = length_line[:16]
    # int() tolerates surrounding whitespace, which would let a bit flip
    # of a hex digit into e.g. a space slip through: require strict hex.
    if not _HEX_FIELD.fullmatch(hex_length):
        raise CorruptSnapshot(source, "unparseable length header")
    length = int(hex_length, 16)
    if length_line[16:17] != b"\n" or digest_line[64:65] != b"\n":
        raise CorruptSnapshot(source, "malformed snapshot header")
    payload = data[_ENVELOPE_HEADER:_ENVELOPE_HEADER + length]
    if len(payload) < length:
        raise TornWrite(
            source,
            f"payload truncated: {len(payload)} of {length} bytes present",
        )
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    if digest != digest_line[:64]:
        raise CorruptSnapshot(source, "payload SHA-256 mismatch")
    return payload


# ----------------------------------------------------------------------
# Generation-numbered snapshot directory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Generation:
    """One snapshot generation on disk."""

    number: int
    watermark: int
    path: Path


class SnapshotStore:
    """Sealed snapshots under generation-numbered filenames.

    Files are named ``gen-<generation>-w<watermark>.snap``: the
    generation orders snapshots, the watermark records how many journal
    batches the snapshot already contains (so a fallback to an *older*
    generation knows where its journal replay must start — see
    ``docs/robustness.md``).

    Args:
        directory: Where generations live (created on first use).
        keep: Retained generations; older ones are pruned after a
            successful write.  Keeping more than one is what makes the
            corrupt-newest fallback possible.
        fsync: Whether writes are fsynced (tests may disable for speed).
        faults: Optional injector for the ``snapshot.pre_rename`` and
            ``snapshot.read`` crash/corruption points.
        metrics: Optional registry receiving the ``persist.*`` counters.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 3,
        fsync: bool = True,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.fsync = fsync
        self.faults = faults
        self.metrics = metrics

    # -- discovery ------------------------------------------------------
    def generations(self) -> list[Generation]:
        """Every on-disk generation, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append(
                    Generation(int(match.group(1)), int(match.group(2)), entry)
                )
        return sorted(found, key=lambda generation: generation.number)

    def oldest_watermark(self) -> int | None:
        """The watermark of the oldest retained generation (None if empty)."""
        generations = self.generations()
        return generations[0].watermark if generations else None

    # -- writing --------------------------------------------------------
    def write(self, payload: bytes, watermark: int = 0) -> int:
        """Durably write a new generation; returns its number.

        The write is atomic (temp + fsync + rename); after it lands,
        generations beyond ``keep`` are pruned oldest-first.
        """
        generations = self.generations()
        number = generations[-1].number + 1 if generations else 1
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"gen-{number:08d}-w{watermark:08d}.snap"
        atomic_write(
            path,
            seal_snapshot(payload),
            fsync=self.fsync,
            faults=self.faults,
            fault_point="snapshot.pre_rename",
        )
        if self.metrics is not None:
            self.metrics.inc(
                "persist.checkpoints_written",
                description="Snapshot generations durably written",
            )
            self.metrics.histogram(
                "persist.checkpoint_bytes",
                "Sealed snapshot payload sizes in bytes",
                buckets=SIZE_BUCKETS,
            ).observe(float(len(payload)))
        for stale in self.generations()[:-self.keep]:
            stale.path.unlink(missing_ok=True)
        _log.debug(
            "snapshot written",
            generation=number, watermark=watermark, bytes=len(payload),
        )
        return number

    # -- reading --------------------------------------------------------
    def read_latest(self) -> tuple[Generation, bytes] | None:
        """The newest verified-good generation and its payload.

        Generations are tried newest first; a corrupt or torn one is
        counted (``persist.checkpoints_rejected``), logged and skipped.
        Returns ``None`` when the store is empty.

        Raises:
            CorruptSnapshot: Generations exist but none verified — the
                caller must not mistake "all corrupt" for "no data".
        """
        generations = self.generations()
        for generation in reversed(generations):
            try:
                payload = self.read_generation(generation)
            except (CorruptSnapshot, TornWrite) as error:
                if self.metrics is not None:
                    self.metrics.inc(
                        "persist.checkpoints_rejected",
                        description="Corrupt/torn snapshot generations skipped",
                    )
                _log.warning(
                    "snapshot generation rejected",
                    generation=generation.number, error=repr(error),
                )
                continue
            return generation, payload
        if generations:
            raise CorruptSnapshot(
                self.directory,
                f"all {len(generations)} snapshot generation(s) failed "
                "verification",
            )
        return None

    def read_generation(self, generation: Generation) -> bytes:
        """One generation's verified payload (checksums enforced)."""
        if self.faults is not None:
            data = self.faults.run("snapshot.read", generation.path.read_bytes)
        else:
            data = generation.path.read_bytes()
        payload = unseal_snapshot(data, generation.path)
        if self.metrics is not None:
            self.metrics.inc(
                "persist.checkpoints_verified",
                description="Snapshot generations read and checksum-verified",
            )
        return payload
