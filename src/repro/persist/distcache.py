"""Persistent warm-start distance cache for the shortest-path engine.

Phase 3's dominant cost is network shortest-path searches, and the
engine's memo table makes repeated refreshes cheap — but only within one
process.  This module writes that memo table to disk through the durable
store (:func:`~repro.persist.store.atomic_write` +
:func:`~repro.persist.store.seal_snapshot`) with each
:meth:`~repro.core.incremental.IncrementalNEAT.checkpoint` (and once
after each recovery), so a restarted
:class:`~repro.distributed.service.NeatService` or a recovered
:class:`~repro.core.incremental.IncrementalNEAT` warm-starts instead of
recomputing: with an unchanged network, rebuilding the checkpointed
state's Phase 3 performs **zero** shortest-path computations, and only
the pairs the journal tail adds are searched.

Format: the SHA-256 sealed snapshot envelope around one JSON header line
(format/version tags, network name, the network's **mutation version**,
direction mode, entry counts) followed by fixed-width packed records —
``<qqd`` per ``(node_a, node_b, value)``, exact entries first, then
bounded verdicts (value = the largest cutoff the pair is proven to
exceed).  Entries are sorted, so the same cache content always produces
the same bytes.  The decoder accepts only what the encoder writes: keys
strictly ascending within each section (so distinct), normalized as the
engine keys them, in at most one section, exact distances ``>= 0``
(``+inf`` = unreachable) and bounded verdicts finite and ``> 0``.

Staleness is the whole point of the header: the cache is keyed on the
CSR mutation version (:attr:`~repro.roadnet.network.RoadNetwork.version`),
and a version, name, or direction mismatch *invalidates* the file — a
stale cache must never serve distances for a mutated network.  Loads are
best-effort: a missing, torn, corrupt, or stale file is a counted miss
(``sp.cache.misses`` / ``sp.cache.invalidations``), never a recovery
failure.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import CorruptSnapshot, PersistenceError, TornWrite
from ..obs import get_logger
from .store import atomic_write, seal_snapshot, unseal_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..resilience import FaultInjector
    from ..roadnet.shortest_path import ShortestPathEngine

_log = get_logger("persist.distcache")

#: Format tag and schema version of the distance-cache payload.
DISTCACHE_FORMAT = "repro-distcache"
DISTCACHE_VERSION = 1

#: One cache entry: node_a (i64), node_b (i64), value (f64).
_RECORD = struct.Struct("<qqd")


def encode_distance_cache(engine: "ShortestPathEngine") -> bytes:
    """Serialize an engine's memo tables into the distcache payload.

    The payload is deterministic for a given cache content (entries are
    emitted sorted), so repeated saves of an unchanged cache are
    byte-identical.
    """
    exact, bounded = engine.export_cache()
    header = {
        "format": DISTCACHE_FORMAT,
        "version": DISTCACHE_VERSION,
        "network": engine.network.name,
        "network_version": engine.network.version,
        "directed": engine.directed,
        "exact": len(exact),
        "bounded": len(bounded),
    }
    parts = [json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
    for (a, b), value in sorted(exact.items()):
        parts.append(_RECORD.pack(a, b, value))
    for (a, b), bound in sorted(bounded.items()):
        parts.append(_RECORD.pack(a, b, bound))
    return b"".join(parts)


def decode_distance_cache(
    payload: bytes, source: str | Path = "<memory>"
) -> tuple[dict, dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Parse a distcache payload into ``(header, exact, bounded)``.

    Raises:
        CorruptSnapshot: Malformed header, wrong format tag or schema
            version, a record section of another size than the header
            claims, or records the encoder could not have written (see
            :func:`_section`).
    """
    newline = payload.find(b"\n")
    if newline < 0:
        raise CorruptSnapshot(source, "distance cache has no header line")
    try:
        header = json.loads(payload[:newline].decode("utf-8"))
    except ValueError as error:
        raise CorruptSnapshot(
            source, f"unparseable distance-cache header: {error}"
        ) from error
    if not isinstance(header, dict) or header.get("format") != DISTCACHE_FORMAT:
        raise CorruptSnapshot(source, "not a distance cache (bad format tag)")
    if header.get("version") != DISTCACHE_VERSION:
        raise CorruptSnapshot(
            source,
            f"unsupported distance-cache version {header.get('version')!r}",
        )
    counts = (header.get("exact"), header.get("bounded"))
    if not all(isinstance(count, int) and count >= 0 for count in counts):
        raise CorruptSnapshot(source, "bad distance-cache entry counts")
    directed = header.get("directed")
    if not isinstance(directed, bool):
        raise CorruptSnapshot(source, "bad distance-cache direction mode")
    body = payload[newline + 1:]
    expected = (counts[0] + counts[1]) * _RECORD.size
    if len(body) != expected:
        raise CorruptSnapshot(
            source,
            f"distance-cache body is {len(body)} bytes, header "
            f"declares {expected}",
        )
    records = list(_RECORD.iter_unpack(body))
    exact = _section(
        records[:counts[0]], directed, lambda value: value >= 0.0,
        "exact", source,
    )
    bounded = _section(
        records[counts[0]:], directed, lambda value: 0.0 < value < math.inf,
        "bounded", source,
    )
    if not exact.keys().isdisjoint(bounded):
        raise CorruptSnapshot(
            source, "distance-cache key is both exact and bounded"
        )
    return header, exact, bounded


def _section(
    records: list[tuple[int, int, float]],
    directed: bool,
    legal,
    what: str,
    source: str | Path,
) -> dict[tuple[int, int], float]:
    """One record section as a table, rejecting what no engine holds.

    Keys must ascend strictly — the encoder sorts them, so a duplicate or
    misplaced key means the header's count is not the distinct-key count
    — and be a pair of distinct nodes, lower node first when undirected
    (the engine's normalized key).  ``legal`` vets each value; NaN fails
    every comparison, so it never passes.
    """
    table: dict[tuple[int, int], float] = {}
    previous = None
    for a, b, value in records:
        key = (a, b)
        if previous is not None and key <= previous:
            raise CorruptSnapshot(
                source, f"{what} distance-cache keys not strictly ascending "
                f"at {key}"
            )
        if a == b or (not directed and a > b):
            raise CorruptSnapshot(
                source, f"non-normalized {what} distance-cache key {key}"
            )
        if not legal(value):
            raise CorruptSnapshot(
                source, f"illegal {what} distance-cache value {value!r} "
                f"for {key}"
            )
        table[key] = value
        previous = key
    return table


def save_distance_cache(
    path: str | Path,
    engine: "ShortestPathEngine",
    *,
    fsync: bool = True,
    metrics: "MetricsRegistry | None" = None,
    faults: "FaultInjector | None" = None,
) -> int:
    """Atomically persist an engine's memo tables to ``path``.

    Returns the number of entries written (exact + bounded).  The write
    goes through the ``distcache.pre_rename`` fault point, so crash
    drills leave either the old file or the new one, never a torn mix.
    """
    exact, bounded = engine.export_cache()
    entries = len(exact) + len(bounded)
    payload = encode_distance_cache(engine)
    # The cache may be the first file in a fresh state directory (the
    # journal and snapshot stores create theirs lazily on first write).
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    atomic_write(
        path,
        seal_snapshot(payload),
        fsync=fsync,
        faults=faults,
        fault_point="distcache.pre_rename",
    )
    if metrics is not None:
        metrics.inc(
            "sp.cache.saves", description="Distance-cache snapshots written"
        )
        metrics.inc(
            "sp.cache.saved_entries",
            amount=entries,
            description="Distance entries written across cache saves",
        )
    _log.debug("distance cache saved", path=str(path), entries=entries)
    return entries


def load_distance_cache(
    path: str | Path,
    engine: "ShortestPathEngine",
    *,
    metrics: "MetricsRegistry | None" = None,
    faults: "FaultInjector | None" = None,
) -> int | None:
    """Warm ``engine`` from a persisted distance cache, best-effort.

    Returns the number of entries absorbed, or ``None`` when the file is
    missing, torn, corrupt, or **stale** — written for a different
    network name, direction mode, or CSR mutation version.  A stale or
    unreadable cache is counted (``sp.cache.invalidations``) and ignored;
    it must never serve distances for a mutated network, and it must
    never turn a recovery into a failure.
    """
    target = Path(path)
    if not target.exists():
        if metrics is not None:
            metrics.inc(
                "sp.cache.misses",
                description="Cache loads finding no distance-cache file",
            )
        return None
    try:
        data = (
            faults.run("distcache.read", target.read_bytes)
            if faults is not None
            else target.read_bytes()
        )
        header, exact, bounded = decode_distance_cache(
            unseal_snapshot(data, target), target
        )
    except (CorruptSnapshot, TornWrite, PersistenceError, OSError) as error:
        if metrics is not None:
            metrics.inc(
                "sp.cache.invalidations",
                description=(
                    "Distance caches discarded as stale, torn, or corrupt"
                ),
            )
        _log.warning(
            "distance cache unreadable, ignoring",
            path=str(target),
            error=repr(error),
        )
        return None
    stale = (
        header.get("network") != engine.network.name
        or header.get("network_version") != engine.network.version
        or header.get("directed") != engine.directed
    )
    if stale:
        if metrics is not None:
            metrics.inc(
                "sp.cache.invalidations",
                description=(
                    "Distance caches discarded as stale, torn, or corrupt"
                ),
            )
        _log.info(
            "distance cache stale, ignoring",
            path=str(target),
            cached_version=header.get("network_version"),
            network_version=engine.network.version,
        )
        return None
    absorbed = engine.absorb_cache(exact, bounded)
    if metrics is not None:
        metrics.inc(
            "sp.cache.loads",
            description="Distance caches successfully loaded into an engine",
        )
        metrics.inc(
            "sp.cache.loaded_entries",
            amount=absorbed,
            description="Distance entries absorbed across cache loads",
        )
    _log.info(
        "distance cache loaded",
        path=str(target),
        entries=absorbed,
        network_version=header.get("network_version"),
    )
    return absorbed
